"""Cohort and fleet specifications for population-scale simulation.

A :class:`CohortSpec` is the unit of vectorized execution *and* the
unit of work sharded across the warm-worker pool: every field is a
plain primitive so a spec crosses the worker pipe as a dict
(:meth:`CohortSpec.to_dict`), and the cohort's random streams are
derived from the spec *name* alone (:mod:`repro.fleet.engine`), so a
cohort replays byte-identically no matter which worker runs it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Sequence

from repro.simulate.cursor_task import CursorTask, SimulatedUser

__all__ = ["CohortSpec", "FleetSpec", "DECODER_FAMILIES"]

#: Decoder families a cohort may select (satellite axis of the fleet).
DECODER_FAMILIES = ("kalman", "wiener", "dnn")


@dataclass(frozen=True)
class CohortSpec:
    """One homogeneous cohort of concurrent closed-loop sessions.

    Attributes:
        name: unique cohort label; seeds every cohort stream
            (``derive_stream_seed(base, "fleet", name)``), so renaming
            a cohort re-rolls it and duplicating a name is an error
            (:class:`FleetSpec` rejects it).
        n_sessions: concurrent sessions stepped in lockstep.
        decoder: one of :data:`DECODER_FAMILIES`.
        n_trials: center-out trials per session.
        latency_steps: control-loop delay in timesteps.
        train_timesteps: open-loop calibration length per session.
        drop_rate: per-window feature-packet loss probability, drawn
            from a dedicated `repro.fault` stream (CRN: the session
            streams are untouched, so ``drop_rate=0`` is byte-identical
            to a no-fault cohort).
        tuning_drift_per_s: deterministic nonstationarity schedule —
            the encoding gain scales by ``1 + drift * t`` over the
            session (no extra random draws, so CRN holds across drift
            settings too).  ``0.0`` takes the exact base code path.
        n_channels / gain / noise_rms / intent_speed: simulated-user
            tuning (see :class:`repro.simulate.cursor_task.SimulatedUser`).
        target_radius / target_distance / dt_s / timeout_s: task
            geometry and timing (see
            :class:`repro.simulate.cursor_task.CursorTask`).
        n_lags: Wiener filter history length.
        hidden / epochs: DNN decoder width and training epochs.
    """

    name: str
    n_sessions: int = 1
    decoder: str = "kalman"
    n_trials: int = 8
    latency_steps: int = 0
    train_timesteps: int = 240
    drop_rate: float = 0.0
    tuning_drift_per_s: float = 0.0
    n_channels: int = 16
    gain: float = 1.5
    noise_rms: float = 0.3
    intent_speed: float = 1.0
    target_radius: float = 0.5
    target_distance: float = 4.0
    dt_s: float = 0.02
    timeout_s: float = 8.0
    n_lags: int = 5
    hidden: int = 16
    epochs: int = 3

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("cohort needs a non-empty name")
        if self.n_sessions < 1:
            raise ValueError("cohort needs at least one session")
        if self.decoder not in DECODER_FAMILIES:
            raise ValueError(f"unknown decoder family {self.decoder!r}; "
                             f"expected one of {DECODER_FAMILIES}")
        if self.n_trials < 1:
            raise ValueError("need at least one trial")
        if self.latency_steps < 0:
            raise ValueError("latency must be non-negative")
        if self.train_timesteps < 2:
            raise ValueError("calibration needs at least two timesteps")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError("drop_rate must lie in [0, 1)")
        if self.n_lags < 1 or self.hidden < 1 or self.epochs < 1:
            raise ValueError("n_lags, hidden, and epochs must be "
                             "positive")
        # The fits' own preconditions, checked here so an unfittable
        # cohort fails at construction, not mid-simulation in a worker.
        if self.decoder == "kalman" and self.train_timesteps < 3:
            raise ValueError("need at least 3 timesteps to fit dynamics")
        if self.decoder == "wiener" and self.train_timesteps <= self.n_lags:
            raise ValueError("need more timesteps than lags")

    def user(self) -> SimulatedUser:
        """The cohort's simulated-user configuration (validated)."""
        return SimulatedUser(n_channels=self.n_channels, gain=self.gain,
                             noise_rms=self.noise_rms,
                             intent_speed=self.intent_speed)

    def task(self) -> CursorTask:
        """The cohort's task geometry and timing (validated)."""
        return CursorTask(target_radius=self.target_radius,
                          target_distance=self.target_distance,
                          dt_s=self.dt_s, timeout_s=self.timeout_s)

    def to_dict(self) -> dict[str, Any]:
        """Primitive dict form — safe to cross the worker pipe."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CohortSpec":
        """Rebuild (and re-validate) a spec from its dict form."""
        return cls(**data)


@dataclass(frozen=True)
class FleetSpec:
    """An ordered collection of cohorts run under one base seed."""

    cohorts: tuple[CohortSpec, ...] = ()

    def __init__(self, cohorts: Sequence[CohortSpec]) -> None:
        object.__setattr__(self, "cohorts", tuple(cohorts))
        if not self.cohorts:
            raise ValueError("a fleet needs at least one cohort")
        names = [cohort.name for cohort in self.cohorts]
        if len(set(names)) != len(names):
            raise ValueError("cohort names must be unique (they seed "
                             f"the cohort streams): {names}")

    @property
    def n_sessions(self) -> int:
        """Total sessions across every cohort."""
        return sum(cohort.n_sessions for cohort in self.cohorts)
