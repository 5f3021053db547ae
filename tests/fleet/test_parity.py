"""Bit-exactness of the fleet engine against the single-session oracle.

A 1-session cohort driven through :func:`run_closed_loop_cohort` must
reproduce :func:`run_closed_loop_session` bit-for-bit for every decoder
family, with and without link drops and loop latency — the parity
contract registered in ``repro.simulate.cursor_task.PARITY_ORACLES``.

The batched fits the engine runs per cohort must equal the scalar
``fit`` of every session, parameter by parameter (the pairs registered
in the ``PARITY_ORACLES`` of ``repro.decoders.kalman``,
``repro.decoders.wiener`` and ``repro.fleet.decoders``).
"""

import numpy as np
import pytest

from repro.decoders import kalman, wiener
from repro.fault.injector import FaultInjector
from repro.fault.plan import FaultPlan, LinkFaults
from repro.fleet import CohortSpec, cohort_fault_seed, cohort_seed
from repro.fleet.decoders import (
    FIT_BLOCK,
    dnn_fit_batch,
    make_batch_decoder,
    make_session_decoder,
)
from repro.obs.manifest import seeded_rng
from repro.simulate.cursor_task import (
    PARITY_ORACLES,
    run_closed_loop_cohort,
    run_closed_loop_session,
)

BASE_SEED = 1234

#: Small-but-real session shape: enough steps for hits, fast to run.
SESSION_KW = dict(n_sessions=1, n_trials=4, train_timesteps=120,
                  timeout_s=2.0)


def oracle_outcome(spec: CohortSpec, base_seed: int):
    """Drive the scalar oracle with the cohort's derived streams."""
    seed = cohort_seed(base_seed, spec.name)
    rng = seeded_rng(seed)
    decoder = make_session_decoder(spec, seed, 0)
    drop_rng = None
    if spec.drop_rate > 0:
        plan = FaultPlan(seed=cohort_fault_seed(base_seed, spec.name),
                         link=LinkFaults(drop_rate=spec.drop_rate))
        drop_rng = FaultInjector(plan).rng("link")
    return run_closed_loop_session(
        decoder, spec.user(), spec.task(), rng,
        n_trials=spec.n_trials, latency_steps=spec.latency_steps,
        train_timesteps=spec.train_timesteps, drop_rate=spec.drop_rate,
        drop_rng=drop_rng)


def assert_bit_exact(spec: CohortSpec):
    expected = oracle_outcome(spec, BASE_SEED)
    session = run_closed_loop_cohort(spec, BASE_SEED)[0]
    assert session.hits == expected.hits
    assert session.trials == expected.trials
    # == on floats: the contract is bit-exact, not approximate.
    assert session.times_to_target_s == expected.times_to_target_s
    assert (session.mean_path_efficiency
            == expected.mean_path_efficiency)
    assert session.dropped_windows == expected.dropped_windows
    assert session.total_windows == expected.total_windows
    assert session.hit_rate == expected.hit_rate
    assert (session.mean_time_to_target_s
            == expected.mean_time_to_target_s)


class TestSingleSessionParity:
    @pytest.mark.parametrize("decoder", ["kalman", "wiener", "dnn"])
    def test_decoder_family_bit_exact(self, decoder):
        spec = CohortSpec(name=f"parity_{decoder}", decoder=decoder,
                          **SESSION_KW)
        assert_bit_exact(spec)

    def test_lossy_link_bit_exact(self):
        spec = CohortSpec(name="parity_lossy", decoder="kalman",
                          drop_rate=0.3, **SESSION_KW)
        expected = oracle_outcome(spec, BASE_SEED)
        assert expected.dropped_windows > 0  # the faults really fired
        assert_bit_exact(spec)

    def test_loop_latency_bit_exact(self):
        spec = CohortSpec(name="parity_latency", decoder="kalman",
                          latency_steps=3, **SESSION_KW)
        assert_bit_exact(spec)

    def test_latency_and_drops_bit_exact(self):
        spec = CohortSpec(name="parity_both", decoder="wiener",
                          latency_steps=2, drop_rate=0.2, **SESSION_KW)
        assert_bit_exact(spec)

    def test_registered_in_parity_oracles(self):
        assert (PARITY_ORACLES["run_closed_loop_cohort"]
                == "run_closed_loop_session")

    def test_cohort_sessions_match_their_own_oracle_runs(self):
        """Every session of a multi-session cohort steps with exactly
        the decoder its own scalar fit produces: the batched fit and
        stepper change nothing, not just for cohorts of one."""
        for decoder in ("kalman", "wiener", "dnn"):
            assert_steps_like_scalar_fits(CohortSpec(
                name=f"parity_multi_{decoder}", decoder=decoder,
                n_sessions=5, train_timesteps=120))


def calibration_set(spec: CohortSpec, data_seed: int = 99):
    """Open-loop calibration data shaped like the engine's: AR(1)
    intents and tuned, noisy, rectified channel rates."""
    rng = np.random.default_rng(data_seed)
    n, t_len, c = spec.n_sessions, spec.train_timesteps, spec.n_channels
    noise = rng.standard_normal((n, t_len, 2))
    states = np.zeros((n, t_len, 2))
    for t in range(1, t_len):
        states[:, t] = 0.95 * states[:, t - 1] + 0.1 * noise[:, t]
    angles = rng.uniform(0, 2 * np.pi, (n, c))
    tuning = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    rates = np.maximum(0.5 + spec.gain * np.matmul(states, tuning), 0.0)
    return states, rates + spec.noise_rms * rng.standard_normal(
        rates.shape)


def scalar_fits(spec: CohortSpec, seed, states, observations):
    """The per-session oracle: one scalar ``fit`` per session."""
    decoders = []
    for i in range(spec.n_sessions):
        decoder = make_session_decoder(spec, seed, i)
        decoder.fit(states[i], observations[i])
        decoders.append(decoder)
    return decoders


def assert_steps_like_scalar_fits(spec: CohortSpec):
    """The engine's entry — fit block by block, then stack into a
    stepper — decodes every session exactly as its scalar fit."""
    seed = cohort_seed(BASE_SEED, spec.name)
    states, observations = calibration_set(spec)
    blocks = [(states[start:start + FIT_BLOCK],
               observations[start:start + FIT_BLOCK])
              for start in range(0, spec.n_sessions, FIT_BLOCK)]
    batch = make_batch_decoder(spec, seed, blocks)
    windows = observations[:, -1]
    decoded = batch.decode(windows, np.arange(spec.n_sessions))
    for i, oracle in enumerate(scalar_fits(spec, seed, states,
                                           observations)):
        expected = oracle.decode(windows[i][None, :])[0]
        assert np.array_equal(decoded[i], expected), (spec.decoder, i)


#: (sessions, calibration timesteps): one session, a count that
#: crosses the fit-block boundary, and a ragged last DNN mini-batch
#: (150 = 4 * 32 + 22) plus a one-row one (161 = 5 * 32 + 1).
FIT_SHAPES = [(1, 160), (FIT_BLOCK + 3, 160), (4, 150), (3, 161)]


@pytest.mark.parametrize("n_sessions, train_timesteps", FIT_SHAPES)
class TestBatchedFitParity:
    """Each batched fit equals the scalar fit of every session."""

    def spec(self, decoder, n_sessions, train_timesteps):
        return CohortSpec(name=f"fit_{decoder}", decoder=decoder,
                          n_sessions=n_sessions,
                          train_timesteps=train_timesteps)

    def test_kalman_fit_batch(self, n_sessions, train_timesteps):
        spec = self.spec("kalman", n_sessions, train_timesteps)
        states, observations = calibration_set(spec)
        stacks = kalman.fit_batch(states, observations)
        for i, oracle in enumerate(scalar_fits(spec, None, states,
                                               observations)):
            for stack, fitted in zip(stacks, (oracle.A, oracle.W,
                                              oracle.H, oracle.Q)):
                assert np.array_equal(stack[i], fitted)

    def test_wiener_fit_batch(self, n_sessions, train_timesteps):
        spec = self.spec("wiener", n_sessions, train_timesteps)
        states, observations = calibration_set(spec)
        weights = wiener.fit_batch(states, observations, spec.n_lags)
        for i, oracle in enumerate(scalar_fits(spec, None, states,
                                               observations)):
            assert np.array_equal(weights[i], oracle.weights)

    def test_dnn_fit_batch(self, n_sessions, train_timesteps):
        spec = self.spec("dnn", n_sessions, train_timesteps)
        seed = cohort_seed(BASE_SEED, spec.name)
        states, observations = calibration_set(spec)
        oracles = scalar_fits(spec, seed, states, observations)
        w1, b1, w2, b2, history = dnn_fit_batch(
            states, observations, [o.seed for o in oracles],
            hidden=spec.hidden, epochs=spec.epochs)
        for i, oracle in enumerate(oracles):
            first, _, second = oracle._decoder.network.layers
            assert np.array_equal(w1[i], first.weight)
            assert np.array_equal(b1[i], first.bias)
            assert np.array_equal(w2[i], second.weight)
            assert np.array_equal(b2[i], second.bias)
            assert history[i].tolist() == oracle._decoder.history

    @pytest.mark.parametrize("decoder", ["kalman", "wiener", "dnn"])
    def test_blocked_cohort_fit_steps_like_scalar_fits(
            self, decoder, n_sessions, train_timesteps):
        assert_steps_like_scalar_fits(
            self.spec(decoder, n_sessions, train_timesteps))
