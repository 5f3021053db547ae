"""Workload ``fleet-sharded``: ``python -m repro fleet --seed SEED
--sessions 1000 --jobs 2 --events --quiet``, all the default cohorts
(Kalman, Wiener and DNN decoders, lossy and drifting cohorts among
them), sharded across the warm pool with the event timeline on.

Check: ``fleet.csv`` and ``events.jsonl`` of every sharded run are
byte-identical to a ``--jobs 1`` reference at the same seed.

The traced run pairs an untraced and a traced ``--jobs 1`` pass (fit,
step and summarize spans: cohorts run in-process) with an untraced and
a traced ``--jobs 2 --metrics`` pass (pool, transport and telemetry
spans on the parent side, and the program's own counters).
"""

from __future__ import annotations

import csv
import filecmp
import re
import shutil
from pathlib import Path

from perfbench import bootstrap, layers
from perfbench.common import (Metric, Proc, SetupProbe, Tally, WorkDir,
                              end_to_end, python_cmd, repro_cmd, run_for,
                              run_proc, run_traced)

SESSIONS = 1000
OUTPUTS = ("fleet.csv", "events.jsonl")
#: The program's ``--metrics`` counters reported as per-layer counts.
COUNTERS = ("perf.transport.bytes", "perf.transport.mode.shm",
            "dnn.forward_passes", "fleet.sessions")


def fleet_args(seed: int, jobs: int, out: Path) -> list[str]:
    return ["fleet", "--seed", str(seed), "--sessions", str(SESSIONS),
            "--jobs", str(jobs), "--events", "--quiet",
            "--output-dir", str(out)]


def same_outputs(out: Path, reference: Path) -> bool:
    return all((out / name).is_file()
               and filecmp.cmp(out / name, reference / name, shallow=False)
               for name in OUTPUTS)


def counters(stdout: str) -> dict[str, int]:
    """Integer counters from the ``-- metrics --`` block."""
    block = stdout.split("-- metrics --", 1)[-1]
    return {match[1]: int(match[2]) for match in
            re.finditer(r"^(\S+)\s+(\d+)$", block, re.MULTILINE)}


def fleet_sessions(out: Path) -> int:
    """Sessions the run simulated: the ``sessions`` column of its
    ``fleet.csv`` summed over the cohort rows (0 if it has none)."""
    if not (out / "fleet.csv").is_file():
        return 0
    with open(out / "fleet.csv", newline="", encoding="utf-8") as handle:
        return sum(int(row["sessions"]) for row in csv.DictReader(handle))


def _reference(seed: int, work: WorkDir, tally: Tally) -> Path:
    reference = work.fresh("reference")
    proc = run_proc(repro_cmd(*fleet_args(seed, 1, reference)), work)
    tally.op(proc.ok and all((reference / n).is_file() for n in OUTPUTS),
             f"--jobs 1 reference: exit {proc.code}: {proc.err[-300:]}")
    return reference


def _sharded(seed: int, work: WorkDir, tally: Tally,
             reference: Path) -> Proc:
    out = work.fresh("sharded")
    proc = run_proc(repro_cmd(*fleet_args(seed, 2, out)), work)
    tally.op(proc.ok and same_outputs(out, reference),
             f"--jobs 2: exit {proc.code}, outputs differ from --jobs 1")
    shutil.rmtree(out)
    return proc


def run(seed: int, seconds: int, trace: bool, work: WorkDir,
        tally: Tally) -> dict[str, Metric]:
    if trace:
        return _traced(seed, seconds, work, tally)
    reference = _reference(seed, work, tally)
    probe = SetupProbe(python_cmd("-c", "import repro.cli"), work, tally)
    procs = run_for(seconds, lambda: _sharded(seed, work, tally, reference),
                    probe)
    probes = probe.top_up()
    return end_to_end(probes, [p.wall_s for p in procs],
                      fleet_sessions(reference) * len(procs),
                      [p.maxrss_mb for p in probes + procs])


def _traced(seed: int, seconds: int, work: WorkDir,
            tally: Tally) -> dict[str, Metric]:
    fixed = bootstrap.measure(work, tally)
    reference = _reference(seed, work, tally)

    def iteration() -> dict[str, float]:
        plain_wall = 0.0
        runs, outs = [], []
        for jobs, extra in ((1, []), (2, ["--metrics"])):
            plain_out, traced_out = work.fresh("plain"), work.fresh("traced")
            outs += [plain_out, traced_out]
            plain = run_proc(repro_cmd(*fleet_args(seed, jobs, plain_out),
                                       *extra), work)
            traced = run_traced([*fleet_args(seed, jobs, traced_out),
                                 *extra], work)
            for proc, out in ((plain, plain_out), (traced[0], traced_out)):
                tally.op(proc.ok and same_outputs(out, reference),
                         f"{proc.args}: exit {proc.code}, outputs differ "
                         f"from --jobs 1 reference")
            plain_wall += plain.wall_s
            runs.append(traced)
        values = layers.from_traced_runs(runs, plain_wall, tally)
        program = counters(runs[-1][0].out)
        tally.op(all(name in program for name in COUNTERS),
                 "fleet --metrics lacks an expected counter")
        values.update({name: float(program.get(name, 0))
                       for name in COUNTERS})
        tally.op(values["perf.transport.shm_tasks"]
                 == values["perf.transport.mode.shm"],
                 "shared-memory payloads unpacked != program's shm count")
        text = (outs[-1] / "events.jsonl").read_bytes()  # traced --jobs 2
        values["obs.events_bytes"] = float(len(text))
        values["obs.events_lines"] = float(text.count(b"\n"))
        for out in outs:
            shutil.rmtree(out)
        return values

    samples = run_for(seconds, iteration)
    fixed["error_rate"] = Metric(tally.error_rate, "ratio", tally.attempted)
    return layers.assemble(samples, fixed)
