"""Byte-level goldens: a fresh ``evaluate --seed 7`` reproduces the
committed ``results/*.csv`` exactly.

Any change to a driver, a kernel or the driver loop that moves a single
byte of a paper or extension artifact fails here; regenerate the golden
(and say why) only when the change is meant to move the numbers.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import ALL_EXPERIMENTS, experiment_name

GOLDEN_DIR = Path(__file__).resolve().parents[2] / "results"

PAPER = tuple(experiment_name(module) for module in ALL_EXPERIMENTS)
EXTENSIONS = ("frontier", "fault_sweep", "fleet")


def _mismatches(output_dir: Path) -> list[str]:
    """Names of written CSVs that differ from (or lack) their golden."""
    bad = []
    for path in sorted(output_dir.glob("*.csv")):
        golden = GOLDEN_DIR / path.name
        if not golden.exists() or golden.read_bytes() != path.read_bytes():
            bad.append(path.name)
    return bad


@pytest.mark.parametrize("names, expected", [
    ((), PAPER),
    (EXTENSIONS, EXTENSIONS),
], ids=["paper", "extensions"])
def test_evaluate_matches_committed_goldens(tmp_path, capsys, names,
                                            expected):
    code = main(["evaluate", *names, "--seed", "7", "--quiet",
                 "--output-dir", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    written = sorted(path.stem for path in tmp_path.glob("*.csv"))
    assert written == sorted(expected)
    assert _mismatches(tmp_path) == []
