"""Workload ``design-queries``: the MINDFUL design-space study (strategy
exploration, the Fig. 12 ChDr -> +La -> +Tech -> +Dense ladder, thermal
assessment) issued in-process as a stream of seeded queries on SoCs 1-8.

Each pass replays the same stream from cold memo caches; about a fifth
of a pass's queries repeat an earlier one, so the model's memo caches
both hit and miss.  Imports are paid once, in ``setup_s``.

The set-up probe is ``python -m perfbench.queries SEED``: import the
model and answer the stream's first query.
"""

from __future__ import annotations

import csv
import hashlib
import time

from perfbench import bootstrap, layers, tracer
from perfbench.common import (GOLDENS, Metric, SetupProbe, Tally, WorkDir,
                              end_to_end, python_cmd, run_for,
                              self_maxrss_mb)
from perfbench.queries import SOCS, answer, make_stream, model

FIG12_CHANNELS = (2048, 4096, 8192)


def load_fig12() -> dict:
    with open(GOLDENS / "fig12.csv", newline="", encoding="utf-8") as handle:
        return {(row["soc"], int(row["channels"]), row["step"]):
                (int(row["active_channels"]), float(row["model_size_pct"]))
                for row in csv.DictReader(handle)}


def ladder_matches(designs, golden: dict) -> bool:
    """The Fig. 12 rows a ladder answer produces equal the golden rows
    (bit-exact: the CSV holds each float's shortest repr)."""
    return all(
        golden.get((d.soc_name, d.n_channels, d.step_name))
        == (d.active_channels, d.model_size_fraction * 100.0)
        for d in designs)


def run_pass(stream, golden: dict, tally: Tally) -> tuple[list[float],
                                                         str, float]:
    """One pass from cold memos: per-query latencies, answer digest and
    pass wall time."""
    tracer.clear_memos()
    digest = hashlib.sha256()
    latencies = []
    clock = time.perf_counter
    start = clock()
    for query in stream:
        began = clock()
        try:
            result = answer(query)
        except Exception as error:  # one failed query must not end the run
            latencies.append(clock() - began)
            tally.op(False, f"query {query}: {error!r}")
            continue
        latencies.append(clock() - began)
        ok = True
        if query[0] == "ladder" and query[2] in FIG12_CHANNELS:
            ok = ladder_matches(result, golden)
        tally.op(ok, f"query {query}: Fig. 12 rows differ from golden")
        digest.update(repr(result).encode())
    return latencies, digest.hexdigest(), clock() - start


def check_fig12_grid(golden: dict, tally: Tally) -> None:
    """Every Fig. 12 grid point, recomputed, equals results/fig12.csv."""
    _, optimizations, scaling, socs, _ = model()
    designs = [design for number in SOCS for n in FIG12_CHANNELS
               for design in optimizations.evaluate_ladder(
                   scaling.scale_to_standard(socs.soc_by_number(number)),
                   n)]
    tally.op(len(designs) == len(golden) and ladder_matches(designs, golden),
             "Fig. 12 grid differs from results/fig12.csv")


def run(seed: int, seconds: int, trace: bool, work: WorkDir,
        tally: Tally) -> dict[str, Metric]:
    stream = make_stream(seed)
    if trace:
        return _traced(seconds, stream, work, tally)
    model()
    golden = load_fig12()
    probe = SetupProbe(python_cmd("-m", "perfbench.queries", str(seed)),
                       work, tally)
    passes = run_for(seconds, lambda: run_pass(stream, golden, tally), probe)
    probes = probe.top_up()
    latencies = [lat for pass_latencies, _, _ in passes
                 for lat in pass_latencies]
    tally.op(len({digest for _, digest, _ in passes}) == 1,
             "answer digest differs between passes")
    check_fig12_grid(golden, tally)
    return end_to_end(probes, latencies, len(latencies),
                      [self_maxrss_mb()] + [p.maxrss_mb for p in probes])


def _traced(seconds: int, stream: list, work: WorkDir,
            tally: Tally) -> dict[str, Metric]:
    fixed = bootstrap.measure(work, tally)
    model()
    golden = load_fig12()

    def iteration() -> dict[str, float]:
        _, plain_digest, plain_wall = run_pass(stream, golden, tally)
        recorder = tracer.Recorder()
        with tracer.installed(recorder):
            _, traced_digest, traced_wall = run_pass(stream, golden, tally)
            memo = tracer.memo_info()
        tally.op(not tracer.leftover_wrappers(),
                 "wrappers left installed after the traced pass")
        tally.op(plain_digest == traced_digest,
                 "answer digest differs between timed and traced passes")
        return layers.with_overhead(
            layers.from_profile(tracer.profile(recorder.spans), memo,
                                traced_wall), traced_wall, plain_wall)

    samples = run_for(seconds, iteration)
    check_fig12_grid(golden, tally)
    fixed["error_rate"] = Metric(tally.error_rate, "ratio", tally.attempted)
    return layers.assemble(samples, fixed)

