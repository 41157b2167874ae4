"""Synthetic INEX-like collection generator.

Reproduces the structure of the paper's 500MB INEX publication collection
at laptop scale, following the DTD excerpt of Section 5.1::

    <!ELEMENT books (journal*)>
    <!ELEMENT journal (title, (sec1|article|sbt)*)>
    <!ELEMENT article (fno, doi?, fm, bdy)>
    <!ELEMENT fm (hdr?, (edinfo|au|kwd|fig)*)>

plus the pieces the experiments need: an ``authors.xml`` document for the
articles-under-authors view (the paper's default view joins articles to
``au`` elements), and per-``fno`` side documents (reviews, citations,
venues) that let the join-count sweep build 0-4 value joins.

Keyword selectivity is calibrated by construction: the three Table 1
keyword classes are planted with fixed per-paragraph probabilities (low ≈
frequent ≫ medium ≫ high ≈ rare), so inverted-list lengths differ by
roughly an order of magnitude per class.

All generation is deterministic given the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.storage.database import XMLDatabase
from repro.xmlmodel.node import XMLNode

# Selectivity plant probabilities per paragraph (low = frequent terms).
_PLANT_PROBABILITY = {
    "low": 0.35,
    "medium": 0.06,
    "high": 0.01,
}
_PLANT_WORDS = {
    "low": ("ieee", "computing"),
    "medium": ("thomas", "control"),
    "high": ("moore", "burnett"),
}

_FILLER_WORDS = [
    "analysis", "system", "model", "data", "query", "index", "structure",
    "algorithm", "performance", "distributed", "parallel", "network",
    "database", "semantic", "retrieval", "document", "evaluation", "design",
    "architecture", "language", "optimization", "transaction", "storage",
    "memory", "cache", "protocol", "schema", "pattern", "stream", "graph",
    "logic", "theory", "framework", "application", "interface", "service",
    "integration", "processing", "scalable", "efficient", "adaptive",
    "dynamic", "static", "hybrid", "robust", "novel", "approach", "method",
    "technique", "experiment", "result", "measurement", "benchmark",
    "workload", "cluster", "partition", "replication", "consistency",
    "availability", "latency", "throughput", "bandwidth", "precision",
    "recall", "ranking", "relevance", "keyword", "search", "view",
]

_FIRST_NAMES = [
    "alice", "robert", "wei", "maria", "john", "sofia", "james", "elena",
    "david", "yuki", "peter", "anna", "carlos", "nina", "omar", "lucia",
]
_LAST_NAMES = [
    "smith", "garcia", "chen", "mueller", "tanaka", "rossi", "dubois",
    "novak", "silva", "kumar", "ivanov", "larsen", "papas", "walsh",
]
_CITIES = [
    "vienna", "seattle", "tokyo", "madrid", "toronto", "sydney", "munich",
    "lyon", "oslo", "prague",
]
_AFFILIATIONS = [
    "cornell", "stanford", "oxford", "ethz", "tsinghua", "mit", "cmu",
    "berkeley",
]


@dataclass(frozen=True)
class INEXConfig:
    """Generator knobs, mapped from Table 1 (see ExperimentParams)."""

    scale: int = 1  # data size multiplier (paper: x100MB)
    journals_per_scale: int = 2
    articles_per_journal: int = 16
    author_pool_base: int = 24  # authors grow sub-linearly with scale
    authors_per_scale: int = 6
    sections_per_article: int = 3
    paragraphs_per_section: int = 5
    words_per_paragraph: int = 12
    bib_entries_per_article: int = 8
    element_size: int = 1  # view-element size multiplier (X1 experiment)
    join_selectivity: float = 1.0  # fraction of articles joining an author
    seed: int = 7

    @property
    def journal_count(self) -> int:
        return self.journals_per_scale * self.scale

    @property
    def author_count(self) -> int:
        return self.author_pool_base + self.authors_per_scale * self.scale


class _Generator:
    def __init__(self, config: INEXConfig):
        self.config = config
        self.rng = random.Random(config.seed)
        self.author_names = self._author_names()
        self.fnos: list[str] = []

    # -- vocabulary -----------------------------------------------------------

    def _author_names(self) -> list[str]:
        names: list[str] = []
        seen: set[str] = set()
        while len(names) < self.config.author_count:
            name = (
                f"{self.rng.choice(_FIRST_NAMES)} "
                f"{self.rng.choice(_LAST_NAMES)}{len(names)}"
            )
            if name not in seen:
                seen.add(name)
                names.append(name)
        return names

    def _text(self, words: int) -> str:
        """A paragraph: filler words plus probabilistically planted
        selectivity-class keywords."""
        tokens = self.rng.choices(_FILLER_WORDS, k=words)
        for cls, probability in _PLANT_PROBABILITY.items():
            if self.rng.random() < probability:
                tokens.append(self.rng.choice(_PLANT_WORDS[cls]))
        self.rng.shuffle(tokens)
        return " ".join(tokens)

    # -- documents ---------------------------------------------------------------

    def articles_doc(self) -> XMLNode:
        config = self.config
        root = XMLNode("books")
        join_cut = config.join_selectivity
        article_number = 0
        for journal_number in range(config.journal_count):
            journal = root.make_child("journal")
            journal.make_child(
                "title", f"journal of {self.rng.choice(_FILLER_WORDS)} "
                f"systems {journal_number}"
            )
            for _ in range(config.articles_per_journal):
                article_number += 1
                fno = f"fn{article_number:05d}"
                self.fnos.append(fno)
                article = journal.make_child("article")
                article.make_child("fno", fno)
                if self.rng.random() < 0.7:
                    article.make_child("doi", f"10.1234/{fno}")
                fm = article.make_child("fm")
                if self.rng.random() < 0.5:
                    fm.make_child("hdr", self._text(4))
                if self.rng.random() < join_cut:
                    author = self.rng.choice(self.author_names)
                else:
                    author = f"external author {article_number}"
                fm.make_child("au", author)
                fm.make_child("atl", self._text(5))
                fm.make_child("kwd", self._text(4))
                fm.make_child("yr", str(self.rng.randint(1975, 2005)))
                bdy = article.make_child("bdy")
                sections = config.sections_per_article * config.element_size
                for section_number in range(sections):
                    sec = bdy.make_child("sec")
                    sec.make_child("st", self._text(3))
                    for _ in range(config.paragraphs_per_section):
                        sec.make_child("p", self._text(config.words_per_paragraph))
                # Bibliography: INEX articles carry reference lists whose
                # entries reuse the au/atl/yr tags.  These matter for the
                # system comparison: they lengthen the per-tag streams the
                # GTP baseline structural-joins over, while the path index
                # keeps them out of the fm/au, fm/yr lists entirely.
                bib = bdy.make_child("bib")
                for _ in range(config.bib_entries_per_article):
                    bb = bib.make_child("bb")
                    bb.make_child("au", self.rng.choice(self.author_names))
                    bb.make_child("atl", self._text(4))
                    bb.make_child("yr", str(self.rng.randint(1975, 2005)))
        return root

    def authors_doc(self) -> XMLNode:
        root = XMLNode("authors")
        group: XMLNode | None = None
        for index, name in enumerate(self.author_names):
            if index % 8 == 0:
                group = root.make_child("group")
                group.make_child(
                    "affiliation", self.rng.choice(_AFFILIATIONS)
                )
            assert group is not None
            author = group.make_child("author")
            author.make_child("name", name)
            author.make_child("bio", self._text(6))
        return root

    def _per_fno_doc(
        self, root_tag: str, item_tag: str, fields: list[tuple[str, int]]
    ) -> XMLNode:
        """A side document with one item per article fno (join chains)."""
        root = XMLNode(root_tag)
        for fno in self.fnos:
            item = root.make_child(item_tag)
            item.make_child("fno", fno)
            for field_tag, words in fields:
                item.make_child(field_tag, self._text(words))
        return root

    def reviews_doc(self) -> XMLNode:
        return self._per_fno_doc(
            "reviews", "review", [("rate", 1), ("comment", 8)]
        )

    def citations_doc(self) -> XMLNode:
        return self._per_fno_doc(
            "citations", "citation", [("label", 2), ("note", 6)]
        )

    def venues_doc(self) -> XMLNode:
        root = XMLNode("venues")
        for fno in self.fnos:
            venue = root.make_child("venue")
            venue.make_child("fno", fno)
            venue.make_child("city", self.rng.choice(_CITIES))
            venue.make_child("note", self._text(5))
        return root


def generate_inex_database(
    config: INEXConfig | None = None,
    include_side_documents: bool = True,
    **database_kwargs,
) -> XMLDatabase:
    """Generate and index the full synthetic collection.

    Documents: ``articles.xml``, ``authors.xml`` and (optionally, for the
    join-count sweeps) ``reviews.xml``, ``citations.xml``, ``venues.xml``.
    """
    config = config or INEXConfig()
    generator = _Generator(config)
    database = XMLDatabase(**database_kwargs)
    database.load_document("articles.xml", generator.articles_doc())
    database.load_document("authors.xml", generator.authors_doc())
    if include_side_documents:
        database.load_document("reviews.xml", generator.reviews_doc())
        database.load_document("citations.xml", generator.citations_doc())
        database.load_document("venues.xml", generator.venues_doc())
    return database
