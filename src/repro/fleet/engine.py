"""Vectorized population-scale closed-loop fleet engine.

Runs a cohort of concurrent closed-loop sessions as batched NumPy
state: cursor positions, targets, per-channel tuning, and decoder
state live in ``(n_sessions, …)`` arrays stepped in lockstep, one
batched decode per control window instead of one Python loop per
session (:mod:`repro.fleet.decoders`).

Determinism contract (tests/fleet/):

* every cohort stream derives from ``(base_seed, "fleet", name)`` via
  :func:`repro.perf.seeds.derive_stream_seed`, so a cohort replays
  byte-identically regardless of scheduling — serial and
  pool-sharded runs produce identical rows;
* a 1-session cohort is **bit-exact** against
  :func:`repro.simulate.cursor_task.run_closed_loop_session` (the
  registered parity oracle): the batched math replays the scalar
  operation sequence per session slice, and the cohort's block
  random draws consume the generator in exactly the scalar order
  (preferred directions, calibration noise, per-session encode
  noise, targets, then one encode draw per active session per step);
* drop decisions come from a dedicated ``repro.fault`` stream
  (:func:`cohort_fault_seed`), so the session streams are untouched —
  ``drop_rate=0`` is byte-identical to a no-fault cohort (CRN), and
  the deterministic tuning-drift schedule adds no draws either.

Sharding: with ``jobs > 1``, :func:`run_fleet` ships each cohort to
the persistent :class:`repro.perf.pool.WarmPool` as a primitive task
dict and the per-session rows come back through shared memory
(:mod:`repro.perf.shm`).  Workers emit the same driver-scoped
telemetry a serial run would (adopted in submission order) and the
parent accounts transport in the metrics registry only — never the
event timeline — so ``events.jsonl`` stays byte-identical between
serial and ``--jobs N`` fleet runs.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.fault.injector import FaultInjector
from repro.fault.plan import FaultPlan, LinkFaults
from repro.fleet.decoders import FIT_BLOCK, make_batch_decoder
from repro.fleet.result import (
    SESSION_COLUMNS,
    CohortResult,
    SessionResult,
)
from repro.fleet.spec import CohortSpec, FleetSpec
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs.events import driver_scope
from repro.obs.manifest import seeded_rng
from repro.obs.metrics import inc
from repro.obs.trace import span
from repro.perf.seeds import derive_stream_seed

__all__ = ["cohort_seed", "cohort_fault_seed", "simulate_cohort",
           "run_cohort", "run_cohort_task", "run_fleet"]


def cohort_seed(base_seed: int | None, name: str) -> int | None:
    """The seed of one cohort's session stream (None passes through)."""
    return derive_stream_seed(base_seed, "fleet", name)


def cohort_fault_seed(base_seed: int | None, name: str) -> int | None:
    """The seed of one cohort's fault (drop-decision) stream."""
    return derive_stream_seed(base_seed, "fleet", name, "fault")


def _make_drop_rng(spec: CohortSpec,
                   base_seed: int | None) -> np.random.Generator:
    """The cohort's dedicated link-fault stream, via ``repro.fault``.

    Always constructed — constructing (without drawing) must not
    perturb anything, which is what keeps a ``drop_rate=0`` cohort
    byte-identical to a no-fault cohort.
    """
    fault_seed = cohort_fault_seed(base_seed, spec.name)
    plan = FaultPlan(seed=0 if fault_seed is None else fault_seed,
                     link=LinkFaults(drop_rate=spec.drop_rate))
    return FaultInjector(plan).rng("link")


def _norm_rows(vectors: np.ndarray) -> np.ndarray:
    """Row norms via per-slice self dot products — bitwise equal to
    ``np.linalg.norm`` applied to each 2-vector row."""
    return np.sqrt(np.matmul(vectors[:, None, :],
                             vectors[:, :, None])[:, 0, 0])


def _simulate(spec: CohortSpec, rng: np.random.Generator,
              drop_rng: np.random.Generator | None,
              decoder_seed: int | None) -> list[SessionResult]:
    """The lockstep cohort simulation (see module docstring).

    ``drop_rng`` is only drawn from when ``spec.drop_rate > 0`` — the
    session ``rng`` stream is identical across drop rates (CRN).
    """
    user = spec.user()
    task = spec.task()
    n, c = spec.n_sessions, spec.n_channels
    t_len = spec.train_timesteps

    # Per-session tuning: one block draw, row-major — session i's
    # angles are exactly the draws its scalar session would make.
    angles = rng.uniform(0, 2 * np.pi, (n, c))
    preferred = np.stack([np.cos(angles), np.sin(angles)], axis=2)

    # Open-loop calibration: the AR(1) intent random walk, one noise
    # block for the whole cohort, stepped in lockstep over time.
    noise = rng.standard_normal((n, t_len - 1, 2))
    velocity = np.zeros((n, t_len, 2))
    for t in range(1, t_len):
        velocity[:, t] = (0.95 * velocity[:, t - 1]
                          + 0.1 * noise[:, t - 1])

    # Calibration features, drawn block by block in session order (a
    # (b, T, c) draw consumes the stream exactly as b per-session
    # draws would), each block fitted at once by the batched fits.
    def calibration():
        for start in range(0, n, FIT_BLOCK):
            block = slice(start, min(start + FIT_BLOCK, n))
            drive = np.matmul(preferred[block, None],
                              velocity[block, :, :, None])[..., 0]
            rates = np.maximum(0.5 + user.gain * drive, 0.0)
            feats = rates + user.noise_rms * rng.standard_normal(
                rates.shape)
            yield velocity[block], feats

    batch = make_batch_decoder(spec, decoder_seed, calibration())

    t_angles = rng.uniform(0, 2 * np.pi, (n, spec.n_trials))
    targets_all = task.target_distance * np.stack(
        [np.cos(t_angles), np.sin(t_angles)], axis=2)

    max_steps = int(task.timeout_s / task.dt_s)
    hits = np.zeros(n, dtype=np.int64)
    dropped = np.zeros(n, dtype=np.int64)
    total = np.zeros(n, dtype=np.int64)
    times = np.full((n, spec.n_trials), np.nan)
    effs = np.full((n, spec.n_trials), np.nan)
    straight = task.target_distance - task.target_radius

    for trial in range(spec.n_trials):
        target = targets_all[:, trial]
        cursor = np.zeros((n, 2))
        pending = [np.zeros((n, 2))
                   for _ in range(spec.latency_steps)]
        travelled = np.zeros(n)
        held = np.zeros((n, 2))
        active = np.ones(n, dtype=bool)
        for step in range(max_steps):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            # Intent: straight at the target, speed-limited, with the
            # scalar guard for a cursor sitting exactly on the target.
            delta = target[idx] - cursor[idx]
            distance = _norm_rows(delta)
            moving = distance != 0.0
            safe = np.where(moving, distance, 1.0)
            speed = np.minimum(user.intent_speed, distance)
            intent = np.where(
                moving[:, None],
                delta / safe[:, None] * speed[:, None], 0.0)
            # Nonstationarity schedule: deterministic tuning-gain
            # drift over session time; drift 0 takes the exact base
            # code path (bitwise CRN across drift settings).
            if spec.tuning_drift_per_s != 0.0:
                elapsed_s = (trial * max_steps + step) * task.dt_s
                gain = user.gain * (
                    1.0 + spec.tuning_drift_per_s * elapsed_s)
            else:
                gain = user.gain
            drive = np.matmul(preferred[idx],
                              intent[:, :, None])[:, :, 0]
            rates = np.maximum(0.5 + gain * drive, 0.0)
            # Compacted draw: only active sessions consume encode
            # noise, matching the scalar early-break draw count.
            feature = rates + user.noise_rms * rng.standard_normal(
                (idx.size, c))
            total[idx] += 1
            decoded = batch.decode(feature, idx)
            if drop_rng is not None and spec.drop_rate > 0.0:
                lost = drop_rng.random(idx.size) < spec.drop_rate
                dropped[idx] += lost
                command = np.where(lost[:, None], held[idx], decoded)
            else:
                command = decoded
            held[idx] = command
            queued = np.zeros((n, 2))
            queued[idx] = command
            pending.append(queued)
            applied = pending.pop(0)[idx]
            move = applied * task.dt_s * 10.0
            travelled[idx] += _norm_rows(move)
            cursor[idx] += move
            reached = _norm_rows(target[idx] - cursor[idx])
            hit = reached <= task.target_radius
            if np.any(hit):
                hidx = idx[hit]
                hits[hidx] += 1
                times[hidx, trial] = (step + 1) * task.dt_s
                good = travelled[hidx] > 0
                effs[hidx[good], trial] = (straight
                                           / travelled[hidx][good])
                active[hidx] = False

    difficulty = float(np.log2(2.0 * task.target_distance
                               / task.target_radius))
    sessions = []
    for i in range(n):
        tmask = ~np.isnan(times[i])
        emask = ~np.isnan(effs[i])
        sessions.append(SessionResult(
            session=i,
            hits=int(hits[i]),
            trials=spec.n_trials,
            times_to_target_s=[float(v) for v in times[i][tmask]],
            mean_path_efficiency=(float(np.mean(effs[i][emask]))
                                  if bool(emask.any()) else 0.0),
            dropped_windows=int(dropped[i]),
            total_windows=int(total[i]),
            difficulty_bits=difficulty,
            dt_s=task.dt_s))
    return sessions


def simulate_cohort(spec: CohortSpec,
                    base_seed: int | None = None) -> list[SessionResult]:
    """Simulate one cohort; returns its per-session results.

    All randomness flows from ``cohort_seed(base_seed, spec.name)``
    (session stream) and ``cohort_fault_seed`` (drop stream) — the
    replay contract of the fleet.
    """
    seed = cohort_seed(base_seed, spec.name)
    return _simulate(spec, seeded_rng(seed),
                     _make_drop_rng(spec, base_seed), seed)


def run_cohort(spec: CohortSpec,
               base_seed: int | None = None) -> CohortResult:
    """Simulate one cohort under fleet telemetry scope."""
    with driver_scope("fleet"):
        with span("fleet.cohort", cohort=spec.name,
                  decoder=spec.decoder, sessions=spec.n_sessions):
            sessions = simulate_cohort(spec, base_seed)
        inc("fleet.sessions", spec.n_sessions)
    return CohortResult(spec=spec,
                        seed=cohort_seed(base_seed, spec.name),
                        rows=[s.to_row() for s in sessions],
                        sessions=sessions)


def run_cohort_task(task: dict[str, Any]):
    """Worker-side entry for one sharded cohort task.

    Called by the warm-pool worker loop for ``kind="fleet_cohort"``
    tasks; returns an ExperimentResult whose rows are the cohort's
    per-session numeric rows, so the shared-memory transport packs
    them as raw columns.
    """
    from repro.experiments.base import ExperimentResult

    spec = CohortSpec.from_dict(task["cohort"])
    cohort = run_cohort(spec, task["seed"])
    return ExperimentResult(
        name=task["name"],
        title=f"fleet cohort {spec.name}",
        rows=cohort.rows,
        summary={"cohort": spec.name, "sessions": spec.n_sessions},
        columns=list(SESSION_COLUMNS))


def _account_transport(name: str, stats: dict[str, Any]) -> None:
    """Transport accounting for fleet shards: metrics registry only.

    Unlike the experiment engine, nothing is emitted to the event
    timeline — the fleet contract is that serial and sharded runs
    produce byte-identical ``events.jsonl``, so the parent adds no
    events of its own.
    """
    if not _metrics.metrics_enabled():
        return
    registry = _metrics.REGISTRY
    registry.inc("perf.transport.bytes", stats["total_bytes"])
    registry.inc(f"perf.transport.mode.{stats['mode']}")
    registry.inc("fleet.cohorts_sharded")
    registry.set_gauge(f"perf.transport.bytes.{name}",
                       stats["total_bytes"])


def _run_fleet_sharded(fleet: FleetSpec, base_seed: int | None,
                       jobs: int,
                       timeout_s: float | None) -> list[CohortResult]:
    """Shard cohorts across the warm pool; collect in cohort order."""
    from repro.perf import shm as _shm
    from repro.perf.parallel import _merge_payload
    from repro.perf.pool import get_pool

    trace_on = _trace.tracing_enabled()
    metrics_on = _metrics.metrics_enabled()
    events_on = _events.events_enabled()
    pool = get_pool(jobs)

    def make_task(cohort: CohortSpec) -> dict[str, Any]:
        return {"kind": "fleet_cohort",
                "name": f"fleet:{cohort.name}",
                "cohort": cohort.to_dict(),
                "seed": base_seed,
                "plan": None, "attempt": 0, "cache": False,
                "trace_on": trace_on, "metrics_on": metrics_on,
                "events_on": events_on,
                "shm_min_bytes": _shm.SHM_MIN_BYTES}

    task_ids = [pool.submit(make_task(cohort))
                for cohort in fleet.cohorts]
    results = []
    for cohort, task_id in zip(fleet.cohorts, task_ids):
        header = pool.wait(task_id, timeout_s=timeout_s)
        payload = _shm.unpack_payload(header)
        pool.release(task_id)
        _merge_payload(payload)
        _account_transport(payload["name"], header["stats"])
        results.append(CohortResult(
            spec=cohort, seed=cohort_seed(base_seed, cohort.name),
            rows=payload["result"].rows, sessions=None))
    return results


def run_fleet(fleet: FleetSpec, base_seed: int | None = None,
              jobs: int = 1,
              timeout_s: float | None = None) -> list[CohortResult]:
    """Run every cohort of a fleet; ``jobs > 1`` shards cohorts
    across the persistent warm-worker pool.

    Returns cohort results in fleet order.  Rows — and, with events
    enabled, the emitted timeline — are byte-identical between serial
    and sharded execution (see module docstring).
    """
    if jobs <= 1:
        return [run_cohort(spec, base_seed) for spec in fleet.cohorts]
    return _run_fleet_sharded(fleet, base_seed, jobs, timeout_s)
