"""The ingest substrate, pinned (``golden_ingest.json``).

``golden_ingest.json`` holds, for every ``DIFFTEST_SEEDS`` case (at the
seed's own view shape) and for every ``VIEW_SHAPES`` template at seed
11, the sha256 of the ``mutations`` module's three state digests —
document-store rows, posting lists, Path-Values rows keyed by path
*tuple* — plus the content fingerprint, per document and in two
states: as loaded, and after the case's edit stream was applied through
the delta path.  Beside them, the cumulative index-probe / store-access
counters after each of the case's queries.

Recorded at the last commit whose three index builders each walked the
tree themselves (``cd tests && python -m difftest.test_golden_ingest``
rewrites the file); what they agreed on is what any ingest path must
reproduce.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.engine import KeywordSearchEngine

from difftest.generators import (
    VIEW_SHAPES,
    apply_mutation,
    generate_case,
    generate_mutation_stream,
)
from difftest.test_differential import DEFAULT_SEEDS
from difftest.test_differential_mutations import (
    _path_rows_digest,
    _postings_digest,
    _store_digest,
)

GOLDEN_PATH = Path(__file__).parent / "golden_ingest.json"
SHAPE_SEED = 11
TOP_K = 10
#: (case id, seed, pinned shape or None for the seed's own draw).
CASES = [(f"seed-{seed}", seed, None) for seed in DEFAULT_SEEDS] + [
    (f"{shape}-{SHAPE_SEED}", SHAPE_SEED, shape) for shape in VIEW_SHAPES
]


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def _document_digests(indexed) -> dict[str, str]:
    return {
        "store": _sha(_store_digest(indexed.store)),
        "postings": _sha(sorted(_postings_digest(indexed.inverted_index).items())),
        "path_rows": _sha(
            sorted(_path_rows_digest(indexed.path_index).items(), key=repr)
        ),
        "fingerprint": indexed.fingerprint,
    }


def compute_case(seed: int, shape=None) -> dict:
    case = generate_case(seed, shape)
    db = case.database
    names = db.document_names()
    out: dict = {
        "loaded": {name: _document_digests(db.get(name)) for name in names},
    }

    engine = KeywordSearchEngine(db)
    view = engine.define_view("v", case.view_text)
    counters = []
    for keywords in case.keyword_sets:
        engine.search(view, keywords, top_k=TOP_K)
        counters.append(
            [
                sum(db.get(n).path_index.probe_count for n in names),
                sum(db.get(n).inverted_index.probe_count for n in names),
                sum(db.get(n).store.access_count for n in names),
            ]
        )
    out["counters"] = counters

    for op in generate_mutation_stream(seed, generate_case(seed, shape).database):
        apply_mutation(db, op)
    out["edited"] = {name: _document_digests(db.get(name)) for name in names}
    return out


@pytest.mark.parametrize(
    "case_id, seed, shape", CASES, ids=[case_id for case_id, _, _ in CASES]
)
def test_ingest_reproduces_recorded_digests(case_id, seed, shape):
    expected = json.loads(GOLDEN_PATH.read_text())["cases"][case_id]
    computed = compute_case(seed, shape)
    for section in ("loaded", "counters", "edited"):
        assert computed[section] == expected[section], f"{case_id} [{section}]"


if __name__ == "__main__":  # pragma: no cover - the recorder
    payload = {
        "cases": {
            case_id: compute_case(seed, shape) for case_id, seed, shape in CASES
        }
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(payload['cases'])} cases to {GOLDEN_PATH}")
