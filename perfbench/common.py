"""Shared plumbing: paths, timed subprocesses, statistics, accounting."""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDENS = ROOT / "results"
WORK_ROOT = Path(__file__).resolve().parent / "_work"

PR_SET_CHILD_SUBREAPER = 36

#: Hard ceiling for any one child process, well inside the 180 s budget
#: of a whole benchmark run.
CHILD_TIMEOUT_S = 150.0


def source_present() -> bool:
    """True when the checkout holds the program the benchmark drives."""
    return (SRC / "repro" / "cli.py").is_file() and GOLDENS.is_dir()


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` and
    the benchmark package importable, nothing else changed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def python_cmd(*args: str) -> list[str]:
    return [sys.executable, *args]


def repro_cmd(*args: str) -> list[str]:
    return python_cmd("-m", "repro", *args)


class WorkDir:
    """A private scratch directory under ``perfbench/_work``, removed on
    exit."""

    def __init__(self) -> None:
        self.path = WORK_ROOT / f"run-{os.getpid()}"
        self._count = 0

    def __enter__(self) -> "WorkDir":
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still holds a directory there

    def fresh(self, stem: str) -> Path:
        """A new, empty directory named after ``stem``."""
        self._count += 1
        path = self.path / f"{stem}-{self._count}"
        path.mkdir()
        return path


@dataclass
class Proc:
    """One finished child process."""

    args: list[str]
    code: int
    wall_s: float
    maxrss_mb: float
    out: str
    err: str

    @property
    def ok(self) -> bool:
        return self.code == 0


def become_subreaper() -> None:
    """Have orphaned descendants re-parented to this process, so that
    :func:`run_proc` can wait for every process a child leaves behind
    (pool workers, resource trackers) and read their memory peaks."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def run_proc(args: list[str], work: WorkDir) -> Proc:
    """Run ``args`` from the checkout root, time it, and wait for it and
    for every descendant it leaves behind.

    ``maxrss_mb`` is the largest resident set of any one process of the
    tree: ``wait4`` reports each process's own peak together with those
    of the descendants it waited for, and :func:`become_subreaper`
    hands this process the ones it did not.  A tree that outlives
    :data:`CHILD_TIMEOUT_S` is killed and the child reported with a
    non-zero code.
    """
    out_path = work.path / "stdout.txt"
    err_path = work.path / "stderr.txt"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, env=child_env(),
                                stdout=out, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            peak = usage.ru_maxrss
            while True:
                try:
                    _, _, usage = os.wait4(-1, 0)
                except ChildProcessError:
                    break
                peak = max(peak, usage.ru_maxrss)
        except BaseException:  # interrupted: take the tree down with us
            _kill_group(proc.pid)
            _reap_all()
            raise
        finally:
            timer.cancel()
    return Proc(args=args, code=proc.returncode, wall_s=wall,
                maxrss_mb=peak / 1024.0,
                out=out_path.read_text(encoding="utf-8", errors="replace"),
                err=err_path.read_text(encoding="utf-8", errors="replace"))


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _reap_all() -> None:
    while True:
        try:
            os.wait4(-1, 0)
        except ChildProcessError:
            return


def self_maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values: list[float]) -> float:
    return statistics.median(values)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Tally:
    """Operations attempted and failed (failed or incorrect output)."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


@dataclass
class Metric:
    """A measured value with its unit and sample count."""

    value: float
    unit: str
    n: int


#: Fewest set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 5


class SetupProbe:
    """The set-up probe.  :func:`run_for` runs it before each closed-loop
    iteration, so its samples spread over the run as the operations do;
    :meth:`top_up` then adds probes until there are
    :data:`SETUP_PROBES`."""

    def __init__(self, args: list[str], work: WorkDir, tally: Tally):
        self.args, self.work, self.tally = args, work, tally
        self.procs: list[Proc] = []

    def __call__(self) -> None:
        proc = run_proc(self.args, self.work)
        self.tally.op(proc.ok, f"set-up probe {self.args}: exit "
                      f"{proc.code}: {proc.err[-300:]}")
        self.procs.append(proc)

    def top_up(self) -> list[Proc]:
        while len(self.procs) < SETUP_PROBES:
            self()
        return self.procs


def end_to_end(probes: list[Proc], op_s: list[float], units: float,
               peaks_mb: list[float]) -> dict[str, Metric]:
    """The end-to-end metrics from the set-up probes, the operation
    latencies (seconds), the work units they completed and the memory
    peaks of every process involved."""
    setup = [proc.wall_s for proc in probes if proc.ok]
    n = len(op_s)
    return {
        "setup_s": Metric(median(setup) if setup else 0.0, "s", len(setup)),
        "op_p50_ms": Metric(median(op_s) * 1e3, "ms", n),
        "op_p99_ms": Metric(percentile(op_s, 99.0) * 1e3, "ms", n),
        "throughput_per_s": Metric(units / sum(op_s), "1/s", n),
        "peak_rss_mb": Metric(max(peaks_mb), "MB", len(peaks_mb)),
    }


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment(workload: str, seed: int, seconds: int,
                trace: bool) -> dict[str, object]:
    """The recorded environment every result carries."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_sha": _git_sha(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "load": "closed loop, one client, driven from one process",
    }


def emit(env: dict[str, object], tally: Tally,
         metrics: dict[str, Metric]) -> None:
    """Print the human report, the environment block and, last, the
    result line."""
    width = max(len(name) for name in metrics)
    for name, metric in metrics.items():
        print(f"{name:<{width}}  {metric.value:>14.6g} {metric.unit:<6} "
              f"n={metric.n}")
    print(f"error_rate {tally.error_rate:.6g} "
          f"({tally.failed}/{tally.attempted} operations)")
    for problem in tally.problems[:20]:
        print(f"FAILED: {problem}")
    block = dict(env)
    block["error_rate"] = tally.error_rate
    block["samples"] = {name: m.n for name, m in metrics.items()}
    print("env " + json.dumps(block, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": m.value, "unit": m.unit}
                    for name, m in metrics.items()},
    }
    print(json.dumps(result))


def run_traced(cli_args: list[str], work: WorkDir) -> tuple[Proc, dict]:
    """Run ``python -m repro <cli_args>`` under the layer wrappers;
    returns the process and its span file (empty if none was written)."""
    spans_path = work.path / "spans.json"
    spans_path.unlink(missing_ok=True)
    proc = run_proc(python_cmd("-m", "perfbench.traced_cli",
                               str(spans_path), *cli_args), work)
    data = {}
    if spans_path.exists():
        data = json.loads(spans_path.read_text(encoding="utf-8"))
    return proc, data


def run_for(seconds: float, iteration, probe=None) -> list:
    """Closed loop: start iterations until they have taken ``seconds``
    (at least one); returns their results.  ``probe``, if given, runs
    before each iteration, outside the measured time."""
    results = []
    spent = 0.0
    while not results or spent < seconds:
        if probe is not None:
            probe()
        start = time.perf_counter()
        results.append(iteration())
        spent += time.perf_counter() - start
    return results
