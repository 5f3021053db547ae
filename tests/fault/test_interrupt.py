"""Interrupt chaos: Ctrl-C mid-``evaluate`` gives one line, exit 130.

The run is interrupted the way a terminal does it, SIGINT to the whole
process group, while a driver sleeps under an injected ``slow`` worker
fault, serially and with a warm pool.  The CLI must print only
``interrupted``, exit 130, leave no live process behind and no partial
or temporary artifact: every CSV present is the complete golden one.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
GOLDEN_DIR = REPO / "results"

pytestmark = pytest.mark.skipif(
    not hasattr(os, "killpg") or not Path("/proc/self/stat").exists(),
    reason="needs POSIX process groups and /proc")


def _live_members(pgid: int) -> list[int]:
    """Pids of non-zombie processes in process group ``pgid``."""
    live = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:  # exited while we looked
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            live.append(int(stat.parent.name))
    return live


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sigint_mid_evaluate(tmp_path, jobs):
    plan = tmp_path / "plan.json"
    plan.write_text('{"worker": {"slow_s": {"fig12": 120}}}')
    out = tmp_path / "out"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "evaluate", "--seed", "7",
         "--quiet", "--jobs", jobs, "--fault-plan", str(plan),
         "--output-dir", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")), cwd=REPO,
        start_new_session=True)
    try:
        # fig11 is written just before the slowed fig12 (serial) or
        # while it sleeps (pooled): the run is mid-evaluate.
        deadline = time.monotonic() + 120
        while not (out / "fig11.csv").exists():
            assert proc.poll() is None, proc.communicate()
            assert time.monotonic() < deadline, "run never got going"
            time.sleep(0.02)
        os.killpg(proc.pid, signal.SIGINT)
        _, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

    assert proc.returncode == 130
    assert stderr == "interrupted\n"
    deadline = time.monotonic() + 10
    while _live_members(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _live_members(proc.pid) == []
    csvs = sorted(out.glob("*.csv"))
    assert "fig12.csv" not in {path.name for path in csvs}
    assert [path.name for path in csvs
            if path.read_bytes() != (GOLDEN_DIR / path.name).read_bytes()
            ] == []
    assert list(out.glob("*.tmp-*")) == []
