"""Small experiment-table harness for the paper's figures.

Each experiment produces an :class:`ExperimentTable` — named columns, one
row per parameter value — which prints in a fixed-width layout mirroring
the series the paper plots, and serializes to markdown for EXPERIMENTS.md.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Callable


def timed(fn: Callable[[], object], repeats: int = 1) -> tuple[float, object]:
    """Run ``fn`` ``repeats`` times; return the best run's (seconds, result).

    The paper reports the average of five runs; at simulator scale the
    minimum of a few runs with the garbage collector paused is the
    lower-noise statistic, and relative shapes are what we compare.
    The result is the fastest run's own, so a row that reads phase
    timings from it sets them against the same run's total.
    """
    best = float("inf")
    best_result: object = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
            if elapsed < best:
                best, best_result = elapsed, result
    finally:
        if gc_was_enabled:
            gc.enable()
            gc.collect()
    return best, best_result


@dataclass
class Row:
    label: str
    values: dict[str, float | int | str]


@dataclass
class ExperimentTable:
    """A printable experiment result (one figure/table of the paper)."""

    experiment_id: str
    title: str
    parameter: str
    columns: list[str]
    rows: list[Row] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, label, **values) -> None:
        self.rows.append(Row(label=str(label), values=values))

    def note(self, text: str) -> None:
        self.notes.append(text)

    # -- access helpers (used by tests and shape assertions) ---------------------

    def column(self, name: str) -> list[float]:
        return [float(row.values[name]) for row in self.rows]

    def labels(self) -> list[str]:
        return [row.label for row in self.rows]

    # -- rendering ---------------------------------------------------------------

    def _formatted(self, value) -> str:
        if isinstance(value, float):
            return f"{value:.4f}"
        return str(value)

    def to_text(self) -> str:
        width = max(12, max((len(c) for c in self.columns), default=12) + 2)
        label_width = max(
            len(self.parameter) + 2,
            max((len(row.label) for row in self.rows), default=8) + 2,
        )
        lines = [f"== {self.experiment_id}: {self.title} =="]
        header = self.parameter.ljust(label_width) + "".join(
            c.rjust(width) for c in self.columns
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            cells = "".join(
                self._formatted(row.values.get(c, "")).rjust(width)
                for c in self.columns
            )
            lines.append(row.label.ljust(label_width) + cells)
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        lines = [
            f"### {self.experiment_id}: {self.title}",
            "",
            "| " + self.parameter + " | " + " | ".join(self.columns) + " |",
            "|" + "---|" * (len(self.columns) + 1),
        ]
        for row in self.rows:
            cells = " | ".join(
                self._formatted(row.values.get(c, "")) for c in self.columns
            )
            lines.append(f"| {row.label} | {cells} |")
        for note in self.notes:
            lines.append(f"\n*{note}*")
        lines.append("")
        return "\n".join(lines)

