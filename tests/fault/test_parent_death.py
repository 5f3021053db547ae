"""Chaos: SIGKILL the parent mid-fleet; no pool worker may outlive it.

A killed parent cannot shut its pool down, and a worker busy with a
cohort never reads the pipe EOF that would end its serve loop.  Each
worker therefore watches its parent and exits on its own.
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

pytestmark = pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                                reason="needs a Linux /proc")


def _stat_fields(pid: int) -> list[str] | None:
    """Fields after the command name in /proc/<pid>/stat (state first,
    then ppid), or None when the process is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat.rpartition(")")[2].split()


def _alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def _cmdline(pid: int) -> bytes:
    try:
        return Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return b""


def _workers(parent: int) -> list[int]:
    """Live forked pool workers of ``parent``: its children running the
    parent's own command line (which excludes helpers such as
    multiprocessing's resource tracker)."""
    command = _cmdline(parent)
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        fields = _stat_fields(int(entry.name))
        if (fields is not None and fields[0] != "Z"
                and int(fields[1]) == parent
                and _cmdline(int(entry.name)) == command):
            found.append(int(entry.name))
    return found


def test_workers_exit_when_parent_is_killed_mid_fleet(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    parent = subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet", "--sessions", "3000",
         "--jobs", "2", "--seed", "7", "--quiet",
         "--output-dir", str(tmp_path)],
        env=env, cwd=REPO, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    workers: list[int] = []
    try:
        deadline = time.monotonic() + 60.0
        while len(workers) < 2 and parent.poll() is None:
            assert time.monotonic() < deadline, "pool never started"
            time.sleep(0.05)
            workers = _workers(parent.pid)
        assert len(workers) == 2, "fleet finished before the pool started"
        time.sleep(1.0)  # both workers are now deep in a cohort
        assert parent.poll() is None, "fleet finished before the kill"
        parent.send_signal(signal.SIGKILL)
        parent.wait()
        time.sleep(2.0)
        survivors = [pid for pid in workers if _alive(pid)]
        assert survivors == [], f"workers {survivors} outlived the parent"
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait()
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
    assert not (tmp_path / "fleet.csv").exists()
