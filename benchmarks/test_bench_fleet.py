"""Before/after benchmark for the vectorized fleet engine, persisted
to ``BENCH_fleet.json`` at the repo root.

The *before* case is the honest population-scale baseline: a Python
loop running one :func:`repro.simulate.cursor_task.
run_closed_loop_session` per session, each with its own derived
stream — exactly how PR 8 and earlier would have simulated a cohort.
The *after* case is :func:`repro.fleet.simulate_cohort`: the same
number of sessions carried as ``(n_sessions, …)`` batched NumPy state
with one batched decode per control window.  Bit-level agreement of
the two paths is asserted separately (tests/fleet/test_parity.py);
this file measures the speedup on the shipping configuration
(10k-session Kalman cohort; contract >= 5x, target >= 20x).

Three ``fleet_fit_<family>`` entries time the calibration step alone:
a Python loop of scalar ``fit`` calls, one per session, against the
family's batched fit on identical calibration data, after asserting
that every fitted parameter is bit-equal.  They are recorded only; no
speed contract rides on them.

Set ``REPRO_BENCH_QUICK=1`` (CI does) for a reduced-size smoke run:
same comparison and the same JSON shape, fewer sessions and no
speedup assertion beyond basic sanity.
"""

from __future__ import annotations

import json
import os
import timeit
from pathlib import Path

import numpy as np

from repro.decoders import KalmanFilterDecoder, kalman, wiener
from repro.fleet import CohortSpec, simulate_cohort
from repro.fleet.decoders import dnn_fit_batch, make_session_decoder
from repro.obs.manifest import seeded_rng
from repro.perf.seeds import derive_stream_seed
from repro.simulate.cursor_task import run_closed_loop_session

#: Where the before/after numbers land (repo root, next to ROADMAP.md).
BENCH_FLEET_PATH = Path(__file__).resolve().parents[1] / "BENCH_fleet.json"

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

#: Fleet-engine contract: the batched cohort must beat the looped
#: single-session baseline by at least this much at 10k sessions.
MIN_FLEET_SPEEDUP = 5.0

#: The issue's stated target (recorded in the JSON, not asserted —
#: host-dependent BLAS throughput decides how far past 5x it lands).
TARGET_FLEET_SPEEDUP = 20.0

#: Sessions in the measured cohort.
N_SESSIONS = 256 if QUICK else 10_000

#: Shared session shape (matches the fleet driver's default cohorts).
SESSION_KW = dict(n_trials=4, train_timesteps=160, timeout_s=2.0,
                  n_channels=16)


def _looped_sessions(n_sessions: int, base_seed: int) -> list:
    """The before case: one scalar closed-loop session per stream."""
    spec = CohortSpec(name="bench", **SESSION_KW)
    outcomes = []
    for index in range(n_sessions):
        rng = seeded_rng(derive_stream_seed(base_seed, "bench",
                                            str(index)))
        outcomes.append(run_closed_loop_session(
            KalmanFilterDecoder(), spec.user(), spec.task(), rng,
            n_trials=spec.n_trials,
            train_timesteps=spec.train_timesteps))
    return outcomes


def _best_seconds(func, *, repeat: int) -> float:
    """Minimum wall-clock seconds per call across repeats."""
    return min(timeit.repeat(func, number=1, repeat=repeat))


#: Sessions per timed calibration fit (the fleet-sharded cohort size).
N_FIT_SESSIONS = 64 if QUICK else 1000


def _calibration(spec: CohortSpec):
    """AR(1) intents and tuned, noisy channel rates for every session."""
    rng = np.random.default_rng(11)
    n, t_len = spec.n_sessions, spec.train_timesteps
    noise = rng.standard_normal((n, t_len, 2))
    states = np.zeros((n, t_len, 2))
    for t in range(1, t_len):
        states[:, t] = 0.95 * states[:, t - 1] + 0.1 * noise[:, t]
    angles = rng.uniform(0, 2 * np.pi, (n, spec.n_channels))
    tuning = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    rates = np.maximum(0.5 + spec.gain * np.matmul(states, tuning), 0.0)
    return states, rates + spec.noise_rms * rng.standard_normal(
        rates.shape)


def _scalar_params(decoder) -> list:
    """A fitted scalar decoder's parameters, in batched-fit order."""
    if isinstance(decoder, KalmanFilterDecoder):
        return [decoder.A, decoder.W, decoder.H, decoder.Q]
    if hasattr(decoder, "weights"):
        return [decoder.weights]
    first, _, second = decoder._decoder.network.layers
    return [first.weight, first.bias, second.weight, second.bias,
            np.array(decoder._decoder.history)]


def _fit_entry(family: str) -> dict:
    """Looped scalar fits vs the batched fit, after a bit-equality
    check of every fitted parameter."""
    spec = CohortSpec(name=f"fit_{family}", decoder=family,
                      n_sessions=N_FIT_SESSIONS, **SESSION_KW)
    states, observations = _calibration(spec)
    oracles = [make_session_decoder(spec, 7, i)
               for i in range(spec.n_sessions)]

    def looped():
        for i, decoder in enumerate(oracles):
            decoder.fit(states[i], observations[i])

    def batched():
        if family == "kalman":
            return kalman.fit_batch(states, observations)
        if family == "wiener":
            return (wiener.fit_batch(states, observations,
                                     spec.n_lags),)
        return dnn_fit_batch(states, observations,
                             [d.seed for d in oracles],
                             hidden=spec.hidden, epochs=spec.epochs)

    looped()
    stacks = batched()
    for i, decoder in enumerate(oracles):
        for stack, param in zip(stacks, _scalar_params(decoder),
                                strict=True):
            assert np.array_equal(stack[i], param), (family, i)
    before = _best_seconds(looped, repeat=1 if QUICK else 3)
    after = _best_seconds(batched, repeat=1 if QUICK else 3)
    return {"name": f"fleet_fit_{family}", "before_s": before,
            "after_s": after,
            "speedup": before / after if after else float("inf"),
            "sessions": N_FIT_SESSIONS, "decoder": family,
            "train_timesteps": SESSION_KW["train_timesteps"]}


def test_bench_fleet_cohort():
    """Time looped scalar sessions vs the batched cohort engine."""
    spec = CohortSpec(name="bench", n_sessions=N_SESSIONS,
                      decoder="kalman", **SESSION_KW)

    # The scalar loop is minutes at 10k sessions — time one honest
    # pass; the fleet path is cheap enough to take the best of three.
    before = _best_seconds(lambda: _looped_sessions(N_SESSIONS, 7),
                           repeat=1)
    after = _best_seconds(lambda: simulate_cohort(spec, 7),
                          repeat=1 if QUICK else 3)

    sessions = simulate_cohort(spec, 7)
    assert len(sessions) == N_SESSIONS
    assert sum(s.hits for s in sessions) > 0

    speedup = before / after if after else float("inf")
    fits = [_fit_entry(family) for family in ("kalman", "wiener", "dnn")]
    payload = {
        "quick": QUICK,
        "cpus": os.cpu_count() or 1,
        "entries": [{
            "name": f"fleet_cohort_{N_SESSIONS}",
            "before_s": before,
            "after_s": after,
            "speedup": speedup,
            "sessions": N_SESSIONS,
            "decoder": "kalman",
            "n_trials": SESSION_KW["n_trials"],
            "train_timesteps": SESSION_KW["train_timesteps"],
            "min_speedup": MIN_FLEET_SPEEDUP,
            "target_speedup": TARGET_FLEET_SPEEDUP,
        }, *fits],
    }
    BENCH_FLEET_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    from repro.obs.manifest import build_manifest, write_manifest
    manifest = build_manifest(
        "bench_fleet",
        extra={"quick": QUICK, "sessions": N_SESSIONS,
               "speedup": round(speedup, 2)})
    write_manifest(Path("results") / "bench_fleet_manifest.json",
                   manifest)

    from repro.obs.bench import append_history, history_record
    append_history(history_record(payload["entries"], quick=QUICK,
                                  cpus=payload["cpus"]),
                   Path("results") / "bench_history.jsonl")

    print(f"\nfleet_cohort_{N_SESSIONS}: {before:8.2f} s -> "
          f"{after:8.3f} s  ({speedup:6.1f}x)")
    for entry in fits:
        print(f"{entry['name']}: {entry['before_s']:8.3f} s -> "
              f"{entry['after_s']:8.3f} s  ({entry['speedup']:6.1f}x)")
    if not QUICK:
        assert speedup >= MIN_FLEET_SPEEDUP, (
            f"fleet cohort only {speedup:.1f}x over looped "
            f"single-session at {N_SESSIONS} sessions")
