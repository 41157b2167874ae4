"""``python -m repro.bench`` and the package surface: the paper's figures,
nothing else (everything else is measured by ``benchmarks/layered/``)."""

import re

import pytest

import repro.bench
from repro.bench.runner import main

PAPER_IDS = "T1 F13 F13b F14 F15 F16 F17 F18 F19 F20 X1 X2".split()


def test_help_lists_exactly_the_paper_experiments(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    listed = re.search(r"all of ([^)]*)\)", capsys.readouterr().out).group(1)
    assert " ".join(listed.split()).split(", ") == PAPER_IDS  # argparse wraps
    assert list(repro.bench.ALL_EXPERIMENTS) == PAPER_IDS


def test_a_retired_id_is_an_unknown_experiment(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["X7"])
    assert exit_info.value.code == 2
    assert "unknown experiment ids: X7" in capsys.readouterr().err


def test_package_surface_is_the_harness_and_the_paper_runners():
    runners = [runner.__name__ for runner in repro.bench.ALL_EXPERIMENTS.values()]
    assert repro.bench.__all__ == [
        "ExperimentTable", "Row", "timed", "ALL_EXPERIMENTS", "build_database",
    ] + [name for name in runners if name != "run_params_table"]
    assert all(hasattr(repro.bench, name) for name in repro.bench.__all__)
