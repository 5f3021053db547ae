"""Before/after benchmarks for the vectorized kernels and the parallel
experiment engine, persisted to ``BENCH_perf.json`` at the repo root.

Each entry times the retained reference implementation (the parity
oracle) against the vectorized production path on the same inputs, so the
JSON records honest speedups for the exact code in the tree:

* ``rice_encode`` / ``rice_decode`` — string oracle vs packed ``uint8``
  codec on a 64k-sample residual block (the contract is >= 10x encode);
* ``optimal_rice_parameter`` — per-k Python loop vs the all-k array pass;
* ``thermal_assemble`` — lil-matrix double loop vs vectorized coo
  assembly;
* ``compressed_frontier`` — scalar step-scan vs vectorized grid
  narrowing;
* ``ber_sweep`` — per-point ``measure_ber`` calls vs the batched
  common-random-numbers sweep;
* ``mc_grid_batch`` — per-(scheme, point) ``measure_ber`` calls vs one
  whole-grid ``measure_ber_grid`` pass (>= 5x contract);
* ``workload_profile`` — building each MLP network and its partition
  heads to read their MAC profiles and parameter count (the oracle) vs
  the closed-form shape and split candidates, over the Fig. 12 ladder's
  n' range;
* ``run_all_jobs4`` — serial vs a *cold* ``jobs=4`` run (pool startup
  included);
* ``run_all_warm_jobs4`` — serial vs a second ``jobs=4`` run against
  the already-warm persistent pool (the >= 2.5x contract only applies
  on multi-core hosts; single-CPU runners record the honest number
  without asserting it).

Set ``REPRO_BENCH_QUICK=1`` (CI does) for a reduced-size smoke run: same
comparisons and the same JSON shape, smaller inputs and no speedup
assertions beyond basic sanity.
"""

from __future__ import annotations

import json
import os
import shutil
import timeit
from pathlib import Path

import numpy as np

from repro.compress.rice import (
    optimal_rice_parameter,
    rice_decode,
    rice_decode_packed,
    rice_encode,
    rice_encode_packed,
    zigzag,
)
from repro.core.comp_centric import Workload, build_workload
from repro.core.explorer import (
    _compressed_stream_ratio,
    _max_channels_compressed,
)
from repro.core.partitioning import _candidates, admissible_splits
from repro.dnn.models import speech_mlp_shape
from repro.core.scaling import scale_to_standard
from repro.core.socs import soc_by_number
from repro.experiments import (ALL_EXPERIMENTS, EXTENSION_EXPERIMENTS,
                               run_all)
from repro.link.channel import (measure_ber, measure_ber_grid,
                                measure_ber_sweep)
from repro.link.modulation import BPSK, MQAM, OOK, QPSK
from repro.perf.pool import shutdown_pool
from repro.thermal.grid import ChipThermalGrid

#: Where the before/after numbers land (repo root, next to ROADMAP.md).
BENCH_PERF_PATH = Path(__file__).resolve().parents[1] / "BENCH_perf.json"

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

#: Contract from the perf issue: packed Rice encode >= 10x on 64k blocks.
MIN_RICE_SPEEDUP = 10.0

#: Parallel fan-out contract — only meaningful with real parallelism.
MIN_RUN_ALL_SPEEDUP = 2.0

#: Warm-pool contract: with workers already up, ``jobs=4`` must beat
#: serial by more than the cold pool does (no startup to amortize).
MIN_RUN_ALL_WARM_SPEEDUP = 2.5

#: Whole-grid Monte-Carlo batching contract.
MIN_MC_GRID_SPEEDUP = 5.0

#: Every registered driver, paper artifacts then extensions.
EVERY_DRIVER = ALL_EXPERIMENTS + EXTENSION_EXPERIMENTS


def _best_seconds(func, *, repeat: int = 3, number: int = 1) -> float:
    """Minimum wall-clock seconds per call across repeats."""
    return min(timeit.repeat(func, number=number, repeat=repeat)) / number


def _entry(name: str, before_s: float, after_s: float,
           **extra) -> dict:
    return {"name": name,
            "before_s": before_s,
            "after_s": after_s,
            "speedup": before_s / after_s if after_s else float("inf"),
            **extra}


def _bench_rice(entries: list[dict]) -> None:
    n = 4096 if QUICK else 65536
    rng = np.random.default_rng(7)
    # Delta-coded neural samples: small residuals (k around 5).
    residuals = rng.integers(-200, 200, size=n).astype(np.int64)
    k = optimal_rice_parameter(residuals)

    encode_before = _best_seconds(lambda: rice_encode(residuals, k))
    encode_after = _best_seconds(lambda: rice_encode_packed(residuals, k))
    bits = rice_encode(residuals, k)
    stream = rice_encode_packed(residuals, k)
    decode_before = _best_seconds(lambda: rice_decode(bits, k, n))
    decode_after = _best_seconds(
        lambda: rice_decode_packed(stream, k, n), number=3)

    entries.append(_entry("rice_encode_64k", encode_before, encode_after,
                          block_samples=n, k=int(k)))
    entries.append(_entry("rice_decode_64k", decode_before, decode_after,
                          block_samples=n, k=int(k)))
    if not QUICK:
        assert encode_before / encode_after >= MIN_RICE_SPEEDUP, (
            f"packed Rice encode only "
            f"{encode_before / encode_after:.1f}x on {n} samples")
        assert decode_before / decode_after >= MIN_RICE_SPEEDUP, (
            f"packed Rice decode only "
            f"{decode_before / decode_after:.1f}x on {n} samples")


def _reference_optimal_k(values: np.ndarray, max_k: int = 24) -> int:
    """The original per-k float scan (the before case — also the float64
    exactness bug the integer rewrite fixed)."""
    unsigned = zigzag(values).astype(np.float64)
    best_k, best_bits = 0, float("inf")
    for k in range(max_k + 1):
        bits = float(np.sum(np.floor(unsigned / (1 << k))) +
                     unsigned.size * (1 + k))
        if bits < best_bits:
            best_k, best_bits = k, bits
    return best_k


def _bench_optimal_k(entries: list[dict]) -> None:
    n = 4096 if QUICK else 65536
    rng = np.random.default_rng(11)
    residuals = rng.integers(-500, 500, size=n).astype(np.int64)
    assert _reference_optimal_k(residuals) == optimal_rice_parameter(
        residuals)
    before = _best_seconds(lambda: _reference_optimal_k(residuals))
    after = _best_seconds(lambda: optimal_rice_parameter(residuals))
    entries.append(_entry("optimal_rice_parameter", before, after,
                          block_samples=n))


def _bench_thermal(entries: list[dict]) -> None:
    grid = ChipThermalGrid(nx=16, ny=16) if QUICK else ChipThermalGrid()
    power = grid.hotspot_map(30e-3)
    before = _best_seconds(lambda: grid._assemble_reference(power))
    after = _best_seconds(lambda: grid._assemble(power),
                          number=5)
    entries.append(_entry("thermal_assemble", before, after,
                          nx=grid.nx, ny=grid.ny))


def _bench_frontier(entries: list[dict]) -> None:
    soc = scale_to_standard(soc_by_number(1))
    ratio, codec = 3.0, 2e-7  # the explore() defaults
    n_limit = 1 << 14 if QUICK else 1 << 18

    def before_scan() -> int:
        best, n = 0, 1
        while n <= n_limit:
            if _compressed_stream_ratio(soc, n, ratio, codec) <= 1.0:
                best = n
            elif best:
                break
            n += 64
        return best

    after_exact = _max_channels_compressed(soc, ratio, codec,
                                           n_limit=n_limit)
    # The step scan under-reports by up to step-1; exact must dominate.
    assert 0 <= after_exact - before_scan() < 64
    before = _best_seconds(before_scan)
    after = _best_seconds(
        lambda: _max_channels_compressed(soc, ratio, codec,
                                         n_limit=n_limit))
    entries.append(_entry("compressed_frontier", before, after,
                          n_limit=n_limit, step_before=64))


def _bench_ber_sweep(entries: list[dict]) -> None:
    scheme = MQAM(4)
    grid = np.linspace(2.0, 12.0, 4 if QUICK else 11)
    n_bits = 20_000 if QUICK else 400_000
    rng = np.random.default_rng(3)

    def per_point() -> None:
        for point in grid:
            measure_ber(scheme, float(point), n_bits,
                        rng=np.random.default_rng(3))

    before = _best_seconds(per_point, repeat=2)
    after = _best_seconds(
        lambda: measure_ber_sweep(scheme, grid, n_bits,
                                  rng=np.random.default_rng(3)),
        repeat=2)
    entries.append(_entry("ber_sweep", before, after,
                          points=len(grid), n_bits=n_bits))
    del rng


def _bench_mc_grid(entries: list[dict]) -> None:
    """Whole-grid Monte-Carlo batching vs per-(scheme, point) calls."""
    schemes = [OOK(), BPSK(), QPSK()]
    grid = np.linspace(2.0, 12.0, 4 if QUICK else 21)
    n_bits = 20_000 if QUICK else 400_000

    def per_point() -> None:
        for index, scheme in enumerate(schemes):
            rng = np.random.default_rng(100 + index)
            for point in grid:
                measure_ber(scheme, float(point), n_bits, rng=rng)

    before = _best_seconds(per_point, repeat=2)
    after = _best_seconds(
        lambda: measure_ber_grid(schemes, grid, n_bits, seed=3),
        repeat=2)
    entries.append(_entry("mc_grid_batch", before, after,
                          schemes=len(schemes), points=len(grid),
                          n_bits=n_bits))
    if not QUICK:
        assert before / after >= MIN_MC_GRID_SPEEDUP, (
            f"measure_ber_grid only {before / after:.2f}x over "
            f"per-point calls")


def _bench_workload_profile(entries: list[dict]) -> None:
    """Network builds (the oracle) vs closed-form shapes over the n'
    values the Fig. 12 ladder's bisection can probe."""
    grid = range(16, (2048 if QUICK else 8192) + 1, 16)

    def from_networks() -> list:
        out = []
        for n in grid:
            net = build_workload(Workload.MLP, n)
            sizes = net.compute_layer_output_values()
            heads = [(split, tuple(net.head(split).mac_profiles()),
                      sizes[split - 1])
                     for split in admissible_splits(net)]
            out.append(((None, tuple(net.mac_profiles()), net.output_values),
                        *heads, net.n_parameters))
        return out

    def closed_form() -> list:
        out = []
        for n in grid:
            shape = speech_mlp_shape(n)
            out.append((*_candidates(shape.mac_profiles, shape.output_values,
                                     1024),
                        shape.n_parameters))
        return out

    assert from_networks() == closed_form()
    before = _best_seconds(from_networks)
    after = _best_seconds(closed_form)
    entries.append(_entry("workload_profile", before, after,
                          workload="mlp", points=len(grid)))


def _bench_run_all(entries: list[dict], tmp_path: Path) -> None:
    jobs = 4
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    warm_dir = tmp_path / "warm"
    before = _best_seconds(
        lambda: run_all(output_dir=serial_dir, seed=2026,
                        modules=EVERY_DRIVER),
        repeat=1)
    shutdown_pool()  # cold number includes warm-pool startup
    after = _best_seconds(
        lambda: run_all(output_dir=parallel_dir, seed=2026,
                        modules=EVERY_DRIVER, jobs=jobs),
        repeat=1)
    # The pool persisted across the cold run; every worker is now warm.
    warm_after = _best_seconds(
        lambda: run_all(output_dir=warm_dir, seed=2026,
                        modules=EVERY_DRIVER, jobs=jobs),
        repeat=1)
    shutdown_pool()

    serial_csvs = {p.name: p.read_bytes()
                   for p in sorted(serial_dir.glob("*.csv"))}
    parallel_csvs = {p.name: p.read_bytes()
                     for p in sorted(parallel_dir.glob("*.csv"))}
    warm_csvs = {p.name: p.read_bytes()
                 for p in sorted(warm_dir.glob("*.csv"))}
    assert serial_csvs and serial_csvs == parallel_csvs == warm_csvs

    cpus = os.cpu_count() or 1
    # On a single-CPU host jobs=4 cannot beat serial; record the
    # honest number but tag it gated so the perf-trajectory gate
    # neither fails on it nor bakes it into a baseline.
    gated = cpus < 2
    entries.append(_entry("run_all_jobs4", before, after,
                          jobs=jobs, cpus=cpus,
                          artifacts_identical=True, gated=gated))
    entries.append(_entry("run_all_warm_jobs4", before, warm_after,
                          jobs=jobs, cpus=cpus,
                          artifacts_identical=True, gated=gated))
    shutil.rmtree(serial_dir, ignore_errors=True)
    shutil.rmtree(parallel_dir, ignore_errors=True)
    shutil.rmtree(warm_dir, ignore_errors=True)


def test_bench_perf_kernels(tmp_path):
    """Time every before/after pair and persist ``BENCH_perf.json``."""
    entries: list[dict] = []
    _bench_rice(entries)
    _bench_optimal_k(entries)
    _bench_thermal(entries)
    _bench_frontier(entries)
    _bench_ber_sweep(entries)
    _bench_mc_grid(entries)
    _bench_workload_profile(entries)
    _bench_run_all(entries, tmp_path)

    for entry in entries:
        assert entry["after_s"] > 0
    payload = {
        "quick": QUICK,
        "cpus": os.cpu_count() or 1,
        "entries": entries,
    }
    BENCH_PERF_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    from repro.obs.manifest import build_manifest, write_manifest
    manifest = build_manifest(
        "bench_perf",
        extra={"quick": QUICK,
               "speedups": {e["name"]: round(e["speedup"], 2)
                            for e in entries}})
    write_manifest(Path("results") / "bench_manifest.json", manifest)

    # Every run also extends the perf trajectory the CI bench-gate
    # compares against (keyed by git SHA + quick/cpus config, so smoke
    # runs never pollute full-run baselines).
    from repro.obs.bench import append_history, history_record
    append_history(history_record(entries, quick=QUICK,
                                  cpus=payload["cpus"]),
                   Path("results") / "bench_history.jsonl")

    lines = [f"{e['name']:>24}: {e['before_s'] * 1e3:9.2f} ms -> "
             f"{e['after_s'] * 1e3:9.2f} ms  ({e['speedup']:6.1f}x)"
             for e in entries]
    print("\n" + "\n".join(lines))

    # The parallel contracts are checked after the numbers are recorded,
    # so a host that misses them still leaves its measurement behind.
    speedups = {e["name"]: e["speedup"] for e in entries}
    cpus = payload["cpus"]
    if not QUICK and cpus >= 2:
        assert speedups["run_all_jobs4"] >= MIN_RUN_ALL_SPEEDUP, (
            f"run_all(jobs=4) only {speedups['run_all_jobs4']:.2f}x "
            f"on {cpus} CPUs")
        assert speedups["run_all_warm_jobs4"] >= MIN_RUN_ALL_WARM_SPEEDUP, (
            f"warm run_all(jobs=4) only "
            f"{speedups['run_all_warm_jobs4']:.2f}x on {cpus} CPUs")
