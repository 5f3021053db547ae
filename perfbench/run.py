"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list-metrics

With ``--trace 0`` the run reports the end-to-end metrics with no
wrappers installed; with ``--trace 1`` it reports the per-layer metrics
of a traced run and the tracing overhead.  The last line of standard
output is the JSON result; the lines before it print every metric by
name with its unit and sample count, and the recorded environment.
"""

from __future__ import annotations

import argparse
import compileall
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("cli-paper", "design-queries", "fleet-sharded")


def _workload_module(name: str):
    if name == "cli-paper":
        from perfbench import cli_paper as module
    elif name == "design-queries":
        from perfbench import design_queries as module
    else:
        from perfbench import fleet_sharded as module
    return module


def list_metrics() -> None:
    from perfbench import layers
    for name, unit in layers.END_TO_END.items():
        print(f"end-to-end  {name:<36} {unit}")
    for workload, operation in layers.OPERATIONS.items():
        print(f"operation   {workload:<36} {operation}")
    for name, unit in layers.PER_LAYER.items():
        print(f"per-layer   {name:<36} {unit:<6} moves: "
              f"{layers.PREDICTIONS[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true",
                        help="print every metric with its unit and exit")
    args = parser.parse_args(argv)
    if args.list_metrics:
        list_metrics()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not common.source_present():
        print(f"perfbench: no program to measure: {common.SRC / 'repro'} "
              f"or {common.GOLDENS} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    # Turn a termination request into SystemExit so every child process
    # is killed and reaped and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    common.become_subreaper()
    env = common.environment(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    tally = common.Tally()
    # Build: byte-compile the program as an installed package would be,
    # so every timed interpreter loads compiled modules whether or not
    # the environment lets Python write its bytecode cache.
    tally.op(bool(compileall.compile_dir(common.SRC, quiet=1)),
             "byte-compiling src/")
    with common.WorkDir() as work:
        metrics = _workload_module(args.workload).run(
            args.seed, args.seconds, bool(args.trace), work, tally)
    common.emit(env, tally, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
