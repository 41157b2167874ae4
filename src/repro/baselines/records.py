"""The baselines' way into a skeleton: one record per emitted element.

The stack automaton (:mod:`repro.baselines.stack_pdt`) and the GTP
baseline's structural joins (:mod:`repro.baselines.gtp`) emit a
:class:`PDTRecord` per surviving element, and tests build them by hand;
:func:`from_records` sorts them into a :class:`PDTSkeleton`'s columns.
The engine never builds records: :func:`repro.core.pdt.build_skeleton`
writes the columns directly.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional

from repro.core.skeleton import (
    PDTSkeleton,
    _HAS_VALUE,
    _WANTS_CONTENT,
    _WANTS_VALUE,
)
from repro.dewey import unpack


@dataclass(slots=True)
class PDTRecord:
    """An emitted PDT element (pre-tree-construction).

    ``key`` is the element's packed Dewey byte key.  The stack automaton
    (:mod:`repro.baselines.stack_pdt`) and the GTP baseline emit these,
    and tests build them, for :func:`from_records`; the pipeline's sweep
    writes columns instead.  ``slots=True``: one record per surviving
    element.
    """

    key: bytes
    tag: str
    value: Optional[str]
    byte_length: int
    wants_value: bool = False
    wants_content: bool = False

    @property
    def dewey(self) -> tuple[int, ...]:
        """Decoded component tuple (diagnostics/tests; not hot-path)."""
        return unpack(self.key)


def from_records(
    doc_name: str,
    records: dict[bytes, PDTRecord],
    entry_count: int,
) -> PDTSkeleton:
    """Finalize the baselines' records: sort them, lay out the columns."""
    keys = tuple(sorted(records))
    ordered = [records[key] for key in keys]
    tag_index: dict[str, int] = {}
    tag_ids = [
        tag_index.setdefault(record.tag, len(tag_index))
        for record in ordered
    ]
    skeleton = PDTSkeleton(doc_name, entry_count, len(keys))
    skeleton._publish(
        keys,
        # Unlike the wire's u16, memory takes any number of tags.
        array("H" if len(tag_index) <= 0xFFFF else "I", tag_ids),
        tuple(tag_index),
        bytes(
            [
                (_WANTS_VALUE if record.wants_value else 0)
                | (_WANTS_CONTENT if record.wants_content else 0)
                | (_HAS_VALUE if record.value is not None else 0)
                for record in ordered
            ]
        ),
        tuple([record.value for record in ordered]),
        array("q", [record.byte_length for record in ordered]),
    )
    return skeleton
