"""Metric catalogue: end-to-end metrics, per-layer metrics, and which
end-to-end metric each layer is predicted to move on which workload.

The end-to-end metrics are reported on every workload, so they are
named for what every workload has: a set-up, a stream of operations
with a latency distribution, a work rate and a memory peak.  What one
operation is depends on the workload (see ``OPERATIONS``): the
cli-paper workflow (whose per-command medians, ``list_p50_s``,
``evaluate_cold_p50_s`` and ``evaluate_warm_p50_s``, are printed as
``detail`` lines), one design query, or one fleet command (so
``throughput_per_s`` is fleet sessions per second there).  Failed or
incorrect operations are reported as ``failed``/``attempted`` on the
result line and as the per-layer ``error_rate``; a rate that is 0 on a
correct run cannot be an end-to-end metric.
"""

from __future__ import annotations

from perfbench.bootstrap import OWNERS
from perfbench.common import Metric, Proc, Tally, median
from perfbench.tracer import MEMOS, TARGETS, Profile, merge, profile

#: name -> unit
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

OPERATIONS = {
    "cli-paper": "one workflow: `repro list`, cold `evaluate --seed 7`, "
                 "warm `evaluate --seed 7 --cache` (work unit: command)",
    "design-queries": "one design query (work unit: query)",
    "fleet-sharded": "one `repro fleet --sessions 1000 --jobs 2 --events` "
                     "(work unit: session, summed from its fleet.csv)",
}

#: ``bootstrap`` (``import repro.cli`` in a traced child) and the layers
#: of the wrapped functions.
LAYERS = ("bootstrap", *dict.fromkeys(target.layer for target in TARGETS))

_FITS = ("decoders.kalman.fit", "decoders.wiener.fit", "decoders.dnn.fit")

#: (group prediction, [(metric, unit), ...]).  A prediction names the
#: end-to-end metric the group should move and on which workload.
GROUPS: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] = (
    ("setup_s and op_p50_ms on cli-paper (list, cold and warm evaluate), "
     "setup_s on fleet-sharded; op_p50_ms/op_p99_ms on design-queries "
     "not at all",
     (("import.interpreter_s", "s"),
      *((f"import.{owner}_s", "s") for owner in OWNERS),
      ("import.total_s", "s"),
      ("layer.bootstrap.self_s", "s"))),
    ("op_p50_ms on cli-paper (cold evaluate)",
     (("cli.main_s", "s"), ("cli.overhead_s", "s"),
      ("experiments.run_module_s", "s"),
      ("experiments.fig12_s", "s"), ("experiments.fig11_s", "s"),
      ("experiments.fig10_s", "s"), ("experiments.fig7_s", "s"),
      ("experiments.save_csv_s", "s"),
      ("experiments.save_csv.calls", "count"),
      ("layer.cli.self_s", "s"), ("layer.experiments.self_s", "s"))),
    ("op_p50_ms on cli-paper (warm evaluate)",
     (("cache.run_and_save_cached_s", "s"), ("cache.probe_driver_s", "s"),
      ("cache.store.get.calls", "count"), ("cache.store.get_s", "s"),
      ("cache.hit_ratio", "ratio"), ("cache.lookups", "count"),
      ("layer.cache.self_s", "s"))),
    ("op_p50_ms and op_p99_ms on design-queries; op_p50_ms on cli-paper "
     "by their small share",
     (("core.explore.calls", "count"), ("core.explore.s", "s"),
      ("core.evaluate_ladder.calls", "count"),
      ("core.evaluate_ladder.s", "s"),
      ("core.scale_to_standard.s", "s"),
      ("core.evaluate_partitioned.s", "s"),
      ("core.max_feasible_channels.s", "s"),
      ("link.required_ebn0.calls", "count"), ("link.required_ebn0.s", "s"),
      ("thermal.assess.s", "s"),
      ("accel.best_schedule.calls", "count"),
      ("accel.best_schedule.s", "s"),
      ("dnn.build_workload.calls", "count"), ("dnn.build_workload.s", "s"),
      *(pair for memo in MEMOS for pair in (
          (f"{memo}.hit_ratio", "ratio"), (f"{memo}.lookups", "count"))),
      ("layer.core.self_s", "s"), ("layer.link.self_s", "s"),
      ("layer.thermal.self_s", "s"), ("layer.accel.self_s", "s"))),
    ("throughput_per_s on fleet-sharded",
     (("fleet.run_cohort.calls", "count"), ("fleet.run_cohort.s", "s"),
      ("fleet.summarize_cohort_s", "s"), ("fleet.step_s", "s"),
      *(pair for fit in _FITS for pair in (
          (f"{fit}.calls", "count"), (f"{fit}.s", "s"))),
      ("dnn.forward.calls", "count"),
      ("dnn.forward_passes", "count"), ("fleet.sessions", "count"),
      ("layer.fleet.self_s", "s"), ("layer.decoders.self_s", "s"),
      ("layer.dnn.self_s", "s"))),
    ("throughput_per_s on fleet-sharded; nothing on cli-paper",
     (("perf.get_pool_s", "s"), ("perf.pool.wait_s", "s"),
      ("perf.shm.unpack_s", "s"), ("perf.transport.bytes", "B"),
      ("perf.transport.shm_tasks", "count"),
      ("perf.transport.mode.shm", "count"),
      ("layer.perf.self_s", "s"))),
    ("throughput_per_s and peak_rss_mb on fleet-sharded",
     (("obs.events_bytes", "B"), ("obs.events_lines", "count"),
      ("obs.write_jsonl_s", "s"), ("obs.adopt_s", "s"),
      ("layer.obs.self_s", "s"))),
    ("none: accounting of the traced run itself",
     (("layer.unattributed_s", "s"), ("trace.wall_s", "s"),
      ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
      ("error_rate", "ratio"))),
)

#: name -> unit, in report order.
PER_LAYER = {name: unit for _, metrics in GROUPS for name, unit in metrics}

#: per-layer metric -> predicted end-to-end effect.
PREDICTIONS = {name: prediction for prediction, metrics in GROUPS
               for name, _ in metrics}


def from_profile(prof: Profile, memo: dict[str, list[int]],
                 wall_s: float) -> dict[str, float]:
    """Per-layer values derivable from one traced iteration's spans."""
    values: dict[str, float] = {}
    for name in PER_LAYER:
        for suffix in (".calls", ".s", "_s"):
            span = name[:-len(suffix)]
            if name.endswith(suffix) and span in prof.calls:
                values[name] = float(prof.calls[span]) if \
                    suffix == ".calls" else prof.inclusive_s[span]
    values["cli.overhead_s"] = prof.self_s.get("cli.main", 0.0)
    values["fleet.step_s"] = prof.inclusive_s.get(
        "fleet.run_cohort", 0.0) - sum(prof.inclusive_s.get(fit, 0.0)
                                       for fit in _FITS)
    values["perf.transport.shm_tasks"] = float(
        prof.tags.get(("perf.shm.unpack", "shm"), 0))
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = prof.layer_self_s.get(layer, 0.0)
    values["layer.unattributed_s"] = wall_s - prof.covered_s
    for name, (hits, misses) in memo.items():
        lookups = hits + misses
        values[f"{name}.lookups"] = float(lookups)
        values[f"{name}.hit_ratio"] = hits / lookups if lookups else 0.0
    return values


def with_overhead(values: dict[str, float], traced_wall: float,
                  plain_wall: float) -> dict[str, float]:
    """Add the traced and untraced wall times of the same work and
    their difference, the tracing overhead."""
    values.update({"trace.wall_s": traced_wall,
                   "trace.untraced_wall_s": plain_wall,
                   "trace.overhead_s": traced_wall - plain_wall})
    return values


def from_traced_runs(runs: list[tuple[Proc, dict]], plain_wall: float,
                     tally: Tally) -> dict[str, float]:
    """Per-layer values of one iteration of traced child processes whose
    untraced twins took ``plain_wall`` seconds."""
    for proc, data in runs:
        tally.op(bool(data), f"traced run wrote no spans: {proc.args}")
    prof = merge([profile(data.get("spans", [])) for _, data in runs])
    memo = {name: [sum(data.get("memo", {}).get(name, [0, 0])[i]
                       for _, data in runs) for i in (0, 1)]
            for name in MEMOS}
    wall = sum(proc.wall_s for proc, _ in runs)
    return with_overhead(from_profile(prof, memo, wall), wall, plain_wall)


def assemble(samples: list[dict[str, float]],
             fixed: dict[str, Metric]) -> dict[str, Metric]:
    """Every per-layer metric: the median over traced iterations of
    ``samples`` (0 where a layer never ran), overridden by ``fixed``."""
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name in fixed:
            metrics[name] = fixed[name]
            continue
        seen = [sample[name] for sample in samples if name in sample]
        value = median(seen) if seen else 0.0
        metrics[name] = Metric(value, unit, len(seen))
    return metrics

