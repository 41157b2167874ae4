"""Compare two sets of benchmark reports: ``compare.py A.json... -- B.json...``

Each file is a report written by ``run.py --out`` (one workload or all).
For every workload x end-to-end metric the tool prints one row: each
side's median and quartiles over its runs, the change as a share of A's
median (the base is always printed), and a verdict against the bound
``BENCHMARK.json`` fixes for that metric:

* ``unresolved``   — a side's own spread (q3 - q1 over its median) exceeds
  the bound, so the runs cannot tell a regression from noise;
* ``regressed``    — B's median is worse than A's by more than the bound;
* ``improved``     — B's median is better than A's by more than A's own
  interquartile distance, over at least ten pairs of runs (the n-th of A
  with the n-th of B) of which B wins nine tenths, ties counting for
  neither;
* ``within_bound`` — otherwise.

Count-valued per-layer metrics (present when the reports include a traced
run) must be identical across every run made at one seed; any that differ
are listed.  Exit status is 1 when any row regressed or any count differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_side(paths: list[str]) -> list[dict]:
    """One ``{workload: report}`` mapping per run file."""
    return [json.loads(Path(path).read_text())["workloads"] for path in paths]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single run has no spread."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """The verdict and B's change, positive = worse, as a share of A's median."""
    a_q1, a_median, a_q3 = quartiles(a)
    b_q1, b_median, b_q3 = quartiles(b)
    worse = (b_median - a_median) / a_median
    if better == "higher":
        worse = -worse
    spread = max((a_q3 - a_q1) / a_median, (b_q3 - b_q1) / b_median)
    if spread > bound:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    pairs = [(x, y) for x, y in zip(a, b) if x != y]
    wins = sum((y > x) == (better == "higher") for x, y in pairs)
    if (
        worse < 0
        and min(len(a), len(b)) >= 10
        and wins >= 0.9 * len(pairs)
        and abs(b_median - a_median) > a_q3 - a_q1
    ):
        return "improved", worse
    return "within_bound", worse


def _values(side: list[dict], workload: str, section: str, metric: str) -> list[float]:
    return [
        run[workload][section][metric]
        for run in side
        if metric in run.get(workload, {}).get(section, {})
    ]


def compare(side_a: list[dict], side_b: list[dict], spec: dict) -> tuple[list[str], bool]:
    lines, failed = [], False
    for workload in (w["name"] for w in spec["workloads"]):
        for entry in spec["end_to_end"]:
            name, unit = entry["name"], entry["unit"]
            a = _values(side_a, workload, "end_to_end", name)
            b = _values(side_b, workload, "end_to_end", name)
            if not a or not b:
                continue
            word, worse = verdict(a, b, entry["better"], entry["bound"])
            failed = failed or word == "regressed"
            a_q1, a_median, a_q3 = quartiles(a)
            b_q1, b_median, b_q3 = quartiles(b)
            lines.append(
                f"{workload:<15} {name:<14} "
                f"A {a_median:10.4f} [{a_q1:.4f}, {a_q3:.4f}] n={len(a)}   "
                f"B {b_median:10.4f} [{b_q1:.4f}, {b_q3:.4f}] n={len(b)} {unit:<4} "
                f"{'worse' if worse > 0 else 'better'} by {abs(worse):6.2%} of A's "
                f"{a_median:.4f} {unit} (bound {entry['bound']:.0%})  {word}"
            )
    count_names = [e["name"] for e in spec["per_layer"] if e["unit"] == "count"]
    for workload in (w["name"] for w in spec["workloads"]):
        by_seed: dict = {}
        for run in side_a + side_b:
            report = run.get(workload, {})
            if "per_layer" in report:
                by_seed.setdefault(report.get("seed"), []).append(report["per_layer"])
        for seed, runs in by_seed.items():
            differing = [
                f"{name}={sorted({run.get(name) for run in runs}, key=str)}"
                for name in count_names
                if len({run.get(name) for run in runs}) > 1
            ]
            if differing:
                failed = True
                lines.append(f"{workload:<15} seed {seed}: counts differ: " + ", ".join(differing))
            elif len(runs) > 1:
                lines.append(
                    f"{workload:<15} seed {seed}: {len(count_names)} count-valued "
                    f"per-layer metrics identical over {len(runs)} traced runs"
                )
    return lines, failed


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__)
        return 2
    split = argv.index("--")
    side_a, side_b = load_side(argv[:split]), load_side(argv[split + 1 :])
    if not side_a or not side_b:
        print("compare.py: need at least one report on each side of --")
        return 2
    lines, failed = compare(side_a, side_b, json.loads(SPEC_PATH.read_text()))
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
