"""The XML parser's accept/reject set, pinned (``golden_parse.json``).

For every input below the recording holds one digest: the sha256 (first
16 hex digits) of the parsed tree's pre-order ``(tag, text, child
count)`` list, or ``["error", line]`` when the input is rejected.  So
neither which inputs parse, nor the trees they parse to, nor the line
an ``XMLParseError`` names can drift.

The inputs:

* the ``repro.workloads`` INEX and books/reviews documents, compact and
  pretty-printed, and the layered benchmark's corpora at its default
  seed;
* hand-written edge cases (``EDGE_CASES``);
* ``MUTATION_COUNT`` seeded mutations of small valid documents
  (``BASES``): a dropped or duplicated ``<``, ``>``, ``/``, quote,
  ``&`` or ``;``, or a non-ASCII character put into a name.

Recorded with the character-level parser, before the tokenizing one
replaced it (``cd tests && PYTHONPATH=../src:.. python -m
difftest.test_golden_parse`` rewrites the file).  Three entries were
re-recorded when a bad reference came to be reported at its ``&``
rather than at the end of its text run: ``edge/error-unknown-entity``
(line 3 → 2), ``edge/error-unterminated-entity`` (2 → 1) and
``mutation/1233`` (4 → 3).
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from repro.errors import XMLParseError
from repro.workloads.bookrev import generate_bookrev_database
from repro.workloads.inex import INEXConfig, generate_inex_database
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serializer import serialize

GOLDEN_PATH = Path(__file__).parent / "golden_parse.json"
MUTATION_SEED = 43
MUTATION_COUNT = 2000

EDGE_CASES = {
    "cdata-empty": "<a><![CDATA[]]></a>",
    "cdata-whitespace": "<a><![CDATA[  \n ]]></a>",
    "cdata-between-text": "<a> x <![CDATA[ y ]]> z <![CDATA[]]></a>",
    "cdata-markup": "<a><![CDATA[<b>&amp;</b> ]] ]>]]></a>",
    "mixed-content": "<a>one<b>two</b> three <c/>four<!-- c --> five<?p i?>six</a>",
    "both-quotes": "<a x=\"it's\" y='say \"hi\"' z = \"3\" />",
    "gt-in-attribute": "<a x=\"1 > 0\" y='a>b'><b c=\">\"/></a>",
    "lt-in-attribute": "<a x=\"1 < 2\"/>",
    "attributes-unspaced": "<a x=\"1\"y='2'/>",
    "attribute-entities": "<a x=\"&lt;&#65;&#x42;&amp;\" y='&apos;&quot;'/>",
    "attribute-newlines": "<a\n  x\n=\n'1'\n  y=\"2\"\n/>",
    "char-refs": "<a>&#65;&#x41;&#X41;&#0065;&#x10FFFF;&#xD7FF;&#xE000;</a>",
    "char-ref-space": "<a>&#32;</a><!-- decoded, then stripped -->",
    "char-ref-nbsp": "<a>&#160;x&#160;</a>",
    "predefined-entities": "<a>&lt;b&gt; &amp; &quot;q&quot; &apos;</a>",
    "doctype-subset": "<!DOCTYPE r [\n <!ENTITY e \"v\">\n <!ELEMENT r ANY>\n]>\n<r>t</r>",
    "doctype-nested-brackets": "<!DOCTYPE r [[]] x>\n<r/>",
    "doctype-unbalanced": "<!DOCTYPE r ]]>\n<r/>",
    "doctype-no-space": "<!DOCTYPEr><r/>",
    "declaration-and-misc": "\n <?xml version=\"1.0\"?>\n<!-- c --><?pi?>\n<r/>",
    "self-closing-root": "<r/>",
    "self-closing-root-spaced": "<r \n/>",
    "self-closing-root-attribute": "<r a='1'/>",
    "trailing-misc": "<r/>\n<!-- c -->\n<?pi x?>\n <!DOCTYPE x [y]>  \n",
    "end-tag-whitespace": "<a><b></b \n\t></a >",
    "names-punctuation": "<ns:a-b.c><_x1 y.z-w:v='1'/></ns:a-b.c>",
    "whitespace-only-text": "<a>\n   \t <b/>\r\n</a>",
    "empty-element-pair": "<a></a>",
    "comment-dashes": "<a><!-- - -- ---></a>",
    "pi-in-element": "<a><?x ? >?>t</a>",
    "deep-mixed": "<a>1<b>2<c>3</c>4</b>5</a>",
    "unicode-text": "<a>café 中文 \U0001f600</a>",
    "error-empty": "",
    "error-blank": "  \n ",
    "error-text-only": "just text",
    "error-unclosed": "<a>\n<b>\n",
    "error-unclosed-text": "<a>\ntrailing text",
    "error-mismatch": "<a>\n<b>\n</a>",
    "error-mismatch-then-gt-missing": "<a>\n</b\n",
    "error-end-tag-junk": "<a>\n</a\nb>",
    "error-end-tag-no-name": "<a></ a>",
    "error-stray-end-root": "</a>",
    "error-two-roots": "<a/>\n<b/>",
    "error-content-after-root": "<a/>\njunk",
    "error-unquoted-attribute": "<a\nx=1/>",
    "error-attribute-no-value": "<a\nattr></a>",
    "error-attribute-unterminated": "<a x='1>\n</a>",
    "error-attribute-bad-name": "<a 1x='1'/>",
    "error-attribute-bad-entity": "<a x='&bogus;'\ny='2'/>",
    "error-slash-space": "<a\n/ >",
    "error-unterminated-comment-misc": "\n<!-- open",
    "error-unterminated-comment": "<a>\n<!-- open</a>",
    "error-unterminated-cdata": "<a>\n<![CDATA[ open</a>",
    "error-unterminated-pi": "<a>\n<? open</a>",
    "error-unterminated-pi-misc": "<?xml\n",
    "error-unterminated-doctype": "<!DOCTYPE x [\n<r/>",
    "error-doctype-in-element": "<a>\n<!DOCTYPE x></a>",
    "error-bang-in-element": "<a>\n<!x></a>",
    "error-cdata-at-root": "<![CDATA[x]]>",
    "error-name-digit": "<1tag/>",
    "error-name-non-ascii": "<é/>",
    "error-name-non-ascii-inner": "<aéb/>",
    "error-unknown-entity": "<a>\n&nope;\n</a>",
    "error-unterminated-entity": "<a>&amp\n</a>",
    "error-bad-char-ref": "<a>x\n&#xZZ;</a>",
    "error-surrogate-ref": "<a>&#xD800;</a>",
    "error-zero-ref": "<a>\n\n&#0;</a>",
    "error-long-ref": "<a>&#" + "9" * 5000 + ";</a>",
    "error-lt-in-text": "<a>1 < 2</a>",
    "error-gt-missing": "<a\n<b/></a>",
    "error-eof-in-start-tag": "<a x='1'",
    "error-eof-after-lt": "<a>\n<",
}

BASES = [
    (
        '<?xml version="1.0"?>\n'
        "<!DOCTYPE books [<!ELEMENT book (title)>]>\n"
        "<books>\n"
        " <book isbn=\"111\" lang='en'>\n"
        "  <title>XML &amp; Web</title>\n"
        "  <year>2004</year>\n"
        " </book>\n"
        " <!-- a comment -->\n"
        " <book isbn='222'><title>AI &#65;&#x42;</title>"
        "<note><![CDATA[x < y]]></note></book>\n"
        "</books>\n"
    ),
    "<r>\n<a x='1' y=\"2\"/>\n<b>text &lt; more</b>\n<c/>\n</r>",
    "<doc><p>one <em>two</em> three</p>\n<p q=\"a&amp;b\">&#x41;</p></doc>",
    "<a>\n <b>\n  <c d='e'>f</c>\n </b>\n <?pi data?>\n</a>\n<!-- end -->",
    "<list>\n<item n=\"1\">a</item>\n<item n='2'>b</item>\n<item/>\n</list>",
    "<x:y a.b='1'><z-w>&quot;q&quot;</z-w><![CDATA[raw]]></x:y>",
]

_MUTABLE = "<>/\"'&;"
_NON_ASCII = "éß中١ΩÀ"
_NAME_CHAR = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:.-0123456789")


def _name_positions(text: str) -> list[int]:
    """Offsets right after ``<`` / ``</`` or after a name character
    inside markup: where a non-ASCII character lands in a name."""
    positions, in_tag = [], False
    for index, char in enumerate(text):
        if char == "<":
            in_tag = True
            positions.append(index + 1)
        elif char == ">":
            in_tag = False
        elif in_tag and (char == "/" or char in _NAME_CHAR):
            positions.append(index + 1)
    return positions


def _mutate(rng: random.Random, text: str) -> str:
    kind = rng.randrange(5)
    if kind == 4:
        positions = _name_positions(text)
        index = rng.choice(positions)
        char = rng.choice(_NON_ASCII)
        if rng.random() < 0.5 and index < len(text) and text[index] in _NAME_CHAR:
            return text[:index] + char + text[index + 1 :]
        return text[:index] + char + text[index:]
    char = rng.choice(_MUTABLE)
    positions = [index for index, found in enumerate(text) if found == char]
    if not positions:
        return text
    index = rng.choice(positions)
    if kind < 2:
        return text[:index] + text[index + 1 :]
    return text[:index] + char + text[index:]


def mutations() -> list[str]:
    rng = random.Random(MUTATION_SEED)
    inputs = []
    for _ in range(MUTATION_COUNT):
        text = rng.choice(BASES)
        for _ in range(rng.choice((1, 1, 1, 2, 3))):
            text = _mutate(rng, text)
        inputs.append(text)
    return inputs


def corpus_documents() -> dict[str, str]:
    """The generated collections' documents, compact and pretty."""
    from benchmarks.layered import workloads

    documents = {}
    databases = {
        "inex": generate_inex_database(INEXConfig(scale=1, seed=13)),
        "bookrev": generate_bookrev_database(book_count=60, reviews_per_book=3, seed=5),
    }
    for label, database in databases.items():
        for name in database.document_names():
            root = database.get(name).root
            documents[f"{label}/{name}"] = serialize(root)
            documents[f"{label}/{name}/pretty"] = serialize(root, indent=2)
    for workload in ("warm_point", "keyword_sweep", "cold_corpus", "edit_mix"):
        for name, text in workloads.generate(workload).documents.items():
            documents[f"layered/{workload}/{name}"] = text
    return documents


def all_inputs() -> dict[str, str]:
    inputs = dict(corpus_documents())
    inputs.update((f"edge/{name}", text) for name, text in EDGE_CASES.items())
    inputs.update(
        (f"mutation/{index:04d}", text) for index, text in enumerate(mutations())
    )
    return inputs


def parse_digest(text: str):
    try:
        root = parse_xml(text)
    except XMLParseError as exc:
        return ["error", exc.line]
    rows = [(node.tag, node.text, len(node.children)) for node in root.iter()]
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()[:16]


def test_parser_reproduces_recorded_digests():
    expected = json.loads(GOLDEN_PATH.read_text())["digests"]
    inputs = all_inputs()
    assert sorted(inputs) == sorted(expected)
    drifted = [
        name for name, text in inputs.items() if parse_digest(text) != expected[name]
    ]
    assert not drifted, f"{len(drifted)} inputs drifted, e.g. {drifted[:5]}"


if __name__ == "__main__":  # pragma: no cover - the recorder
    digests = {name: parse_digest(text) for name, text in all_inputs().items()}
    GOLDEN_PATH.write_text(json.dumps({"digests": digests}, indent=0, sort_keys=True) + "\n")
    rejected = sum(1 for digest in digests.values() if isinstance(digest, list))
    print(f"recorded {len(digests)} digests ({rejected} rejections) to {GOLDEN_PATH}")
