"""Workload ``cli-paper``: the researcher's shell workflow.

One operation is ``python -m repro list``, a cold ``evaluate --seed 7
--quiet`` into a fresh output directory, then a warm ``evaluate --seed 7
--quiet --cache`` into the same directory, run serially with telemetry
off.  The warm run replays a result cache primed once, untimed, at
set-up, as a researcher's persistent cache would be.

Checks: every CSV is byte-identical to the committed ``results/`` golden
after both evaluate runs, the warm run reports ``cache: 10/10 driver
hits``, ``list`` prints every Table 1 design, and ``repro validate``
passes 16/16 claims once per run (untimed).

Set-up and the commands do not depend on the seed: the committed
goldens exist for ``--seed 7`` only.
"""

from __future__ import annotations

import csv
import filecmp
import re
import shutil
from pathlib import Path

from perfbench import bootstrap, layers
from perfbench.common import (GOLDENS, Metric, Proc, Tally, WorkDir,
                              SetupProbe, end_to_end, median, python_cmd,
                              repro_cmd, run_for, run_proc, run_traced)

PAPER_CSVS = ("table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
              "fig10", "fig11", "fig12")
WARM_MARK = f"cache: {len(PAPER_CSVS)}/{len(PAPER_CSVS)} driver hits"
VALIDATE_MARK = "16/16 claims reproduced"

LIST = ("list",)
COLD = ("evaluate", "--seed", "7", "--quiet", "--output-dir")
WARM = ("evaluate", "--seed", "7", "--quiet", "--cache", "--output-dir")


def golden_mismatches(output_dir: Path, golden_dir: Path) -> list[str]:
    """Paper CSVs whose bytes differ from the golden copy (or are
    missing)."""
    return [name for name in PAPER_CSVS
            if not (output_dir / f"{name}.csv").is_file()
            or not filecmp.cmp(output_dir / f"{name}.csv",
                               golden_dir / f"{name}.csv", shallow=False)]


def table1_names() -> list[str]:
    with open(GOLDENS / "table1.csv", newline="", encoding="utf-8") as fh:
        return [row["name"] for row in csv.DictReader(fh)]


def _workflow(work: WorkDir, tally: Tally, primed: Path, runner,
              goldens: Path = GOLDENS) -> list[tuple[Proc, dict]]:
    """list, cold evaluate, warm evaluate, each through ``runner``
    (returning a process and its span file), checked against
    ``goldens``."""
    out = work.fresh("evaluate")
    listed = runner([*LIST])
    proc = listed[0]
    tally.op(proc.ok and all(name in proc.out for name in table1_names()),
             f"list: exit {proc.code}, designs missing")
    cold = runner([*COLD, str(out)])
    proc = cold[0]
    bad = golden_mismatches(out, goldens)
    tally.op(proc.ok and not bad, f"cold evaluate: exit {proc.code}, "
             f"differs from golden: {bad}")
    shutil.copytree(primed / ".cache", out / ".cache")
    warm = runner([*WARM, str(out)])
    proc = warm[0]
    bad = golden_mismatches(out, goldens)
    tally.op(proc.ok and WARM_MARK in proc.out and not bad,
             f"warm evaluate: exit {proc.code}, differs from golden: {bad}")
    shutil.rmtree(out)
    return [listed, cold, warm]


def _prime(work: WorkDir, tally: Tally) -> Path:
    primed = work.fresh("primed")
    proc = run_proc(repro_cmd(*WARM, str(primed)), work)
    tally.op(proc.ok and (primed / ".cache").is_dir(),
             f"cache priming: exit {proc.code}")
    return primed


def _plain(work: WorkDir):
    return lambda args: (run_proc(repro_cmd(*args), work), {})


def _validate(work: WorkDir, tally: Tally) -> None:
    proc = run_proc(repro_cmd("validate"), work)
    tally.op(proc.ok and VALIDATE_MARK in proc.out,
             f"validate: exit {proc.code}")


def run(seed: int, seconds: int, trace: bool, work: WorkDir,
        tally: Tally) -> dict[str, Metric]:
    if trace:
        return _traced(seconds, work, tally)
    primed = _prime(work, tally)
    probe = SetupProbe(python_cmd("-c", "import repro.cli"), work, tally)
    flows = run_for(seconds, lambda: [
        proc for proc, _ in _workflow(work, tally, primed, _plain(work))],
        probe)
    probes = probe.top_up()
    _validate(work, tally)
    walls = [sum(p.wall_s for p in flow) for flow in flows]
    commands = [p for flow in flows for p in flow]
    for index, label in enumerate(("list", "evaluate_cold", "evaluate_warm")):
        print(f"detail {label}_p50_s "
              f"{median([flow[index].wall_s for flow in flows]):.6g} s "
              f"n={len(flows)}")
    return end_to_end(probes, walls, len(commands),
                      [p.maxrss_mb for p in probes + commands])


def _traced(seconds: int, work: WorkDir, tally: Tally) -> dict[str, Metric]:
    fixed = bootstrap.measure(work, tally)
    primed = _prime(work, tally)

    def iteration() -> dict[str, float]:
        plain_wall = sum(proc.wall_s for proc, _ in
                         _workflow(work, tally, primed, _plain(work)))
        runs = _workflow(work, tally, primed,
                         lambda args: run_traced(args, work))
        values = layers.from_traced_runs(runs, plain_wall, tally)
        hits = re.search(r"cache: (\d+)/(\d+) driver hits", runs[2][0].out)
        lookups = int(hits.group(2)) if hits else 0
        values.update({
            "cache.hit_ratio": int(hits.group(1)) / lookups if lookups
            else 0.0,
            "cache.lookups": float(lookups),
        })
        return values

    samples = run_for(seconds, iteration)
    _validate(work, tally)
    fixed["error_rate"] = Metric(tally.error_rate, "ratio", tally.attempted)
    return layers.assemble(samples, fixed)
