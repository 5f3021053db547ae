"""Batched decoder fitting and closed-loop stepping per family.

The fleet engine fits a whole cohort's decoders at once, in blocks of
:data:`FIT_BLOCK` sessions, as ``(n_sessions, …)`` parameter stacks:

* Kalman — :func:`repro.decoders.kalman.fit_batch`, one stacked
  normal-equation solve;
* Wiener — :func:`repro.decoders.wiener.fit_batch`, the same over a
  lag-embedded design stack;
* DNN — :func:`dnn_fit_batch`, mini-batch SGD of the ``Dense → Tanh →
  Dense`` readout run once per mini-batch for every session.

Each batched fit replays its scalar ``fit`` (the oracle, built by
:func:`make_session_decoder`) slice by slice, so every fitted
parameter is bit-for-bit the one a per-session fit would produce —
which keeps a 1-session cohort exact against the single-session
oracle.  The stacks then step all sessions through one batched decode
per control window:

* Kalman — the per-window decode from the reset state collapses to a
  constant affine operator per session, precomputed by
  :func:`repro.decoders.kalman.closed_loop_gain_batch`;
* Wiener — one zero-history design row per session applied by
  :func:`repro.decoders.wiener.decode_step_batch`;
* DNN — the two weight stacks driven through batched matmuls and
  ``tanh``, replaying the ``Dense``/``Tanh`` forward math slice by
  slice.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.decoders import kalman, wiener
from repro.decoders.dnn_decoder import DnnDecoder
from repro.decoders.kalman import KalmanFilterDecoder, closed_loop_gain_batch
from repro.decoders.wiener import WienerFilterDecoder, decode_step_batch
from repro.dnn.layers import Dense, Tanh
from repro.dnn.macs import fmac_dense
from repro.dnn.network import Network
from repro.fleet.spec import CohortSpec
from repro.obs.manifest import seeded_rng
from repro.obs.metrics import inc, observe_many
from repro.obs.trace import span
from repro.perf.seeds import derive_stream_seed

__all__ = ["DnnCursorDecoder", "FIT_BLOCK", "dnn_fit_batch",
           "make_session_decoder", "make_batch_decoder"]

#: Sessions per batched-fit block: bounds the calibration features and
#: the Wiener design stack held at once (~13 MB at 160 timesteps and
#: 16 channels).  The fitted parameters do not depend on it.
FIT_BLOCK = 128


class DnnCursorDecoder:
    """Session-protocol adapter around :class:`DnnDecoder`.

    The closed-loop session calls ``fit(states, observations)`` with no
    generator, but a DNN needs one for initialization and minibatch
    order — so the adapter carries its own derived seed and builds a
    fresh ``Dense → Tanh → Dense`` velocity readout at fit time.  Both
    the fleet engine and the single-session parity oracle construct it
    through :func:`make_session_decoder`, which is what keeps the DNN
    cohort bit-exact against ``run_closed_loop_session``.
    """

    def __init__(self, seed: int | None = None, hidden: int = 16,
                 epochs: int = 3, batch_size: int = 32,
                 learning_rate: float = 0.05) -> None:
        self.seed = seed
        self.hidden = hidden
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self._decoder: DnnDecoder | None = None

    @property
    def fitted(self) -> bool:
        return self._decoder is not None and self._decoder.fitted

    def fit(self, states: np.ndarray, observations: np.ndarray) -> None:
        """Build and train the readout network on calibration data."""
        states = np.asarray(states, dtype=float)
        observations = np.asarray(observations, dtype=float)
        n_features = observations.shape[1]
        n_states = states.shape[1]
        rng = seeded_rng(self.seed)
        network = Network(
            [Dense(n_features, self.hidden, rng=rng), Tanh(),
             Dense(self.hidden, n_states, rng=rng)],
            input_shape=(n_features,), name="fleet_mlp")
        self._decoder = DnnDecoder(network, epochs=self.epochs,
                                   batch_size=self.batch_size,
                                   learning_rate=self.learning_rate)
        self._decoder.fit(observations, states, rng)

    def decode(self, observations: np.ndarray) -> np.ndarray:
        if self._decoder is None:
            raise RuntimeError("decoder must be fitted before decoding")
        return self._decoder.decode(observations)


def _dnn_seed(cohort_seed: int | None, index: int) -> int | None:
    """Session ``index``'s DNN substream (init and minibatch order)."""
    return derive_stream_seed(cohort_seed, "dnn", str(index))


def make_session_decoder(spec: CohortSpec, cohort_seed: int | None,
                         index: int):
    """A fresh, unfitted decoder for session ``index`` of a cohort.

    Shared between the fleet engine and the parity tests so both sides
    of the oracle comparison hold the identical model (the DNN family
    derives a per-session substream from the cohort seed; the linear
    families are fully determined by the calibration data).
    """
    if spec.decoder == "kalman":
        return KalmanFilterDecoder()
    if spec.decoder == "wiener":
        return WienerFilterDecoder(n_lags=spec.n_lags)
    if spec.decoder == "dnn":
        return DnnCursorDecoder(seed=_dnn_seed(cohort_seed, index),
                                hidden=spec.hidden, epochs=spec.epochs)
    raise ValueError(f"unknown decoder family {spec.decoder!r}")


def dnn_fit_batch(states: np.ndarray, observations: np.ndarray,
                  seeds: Sequence[int | None], hidden: int = 16,
                  epochs: int = 3, batch_size: int = 32,
                  learning_rate: float = 0.05):
    """Batched :meth:`DnnCursorDecoder.fit` over a stack of sessions.

    Session ``i`` draws from ``seeded_rng(seeds[i])`` exactly what its
    scalar fit draws — the He-init weights of both ``Dense`` layers,
    then one ``permutation`` per epoch — and the mini-batch SGD of
    :func:`repro.dnn.train.sgd_train` (forward, MSE gradient, backward,
    update) then runs once per mini-batch for every session, with
    batched matmuls that replay the scalar per-slice products.  Every
    returned array is bit-for-bit the scalar fit's.

    Args:
        states: (n, T, k) regression targets per session.
        observations: (n, T, f) features per session.
        seeds: one generator seed per session.
        hidden / epochs / batch_size / learning_rate: as in
            :class:`DnnCursorDecoder`.

    Returns:
        ``(w1, b1, w2, b2, history)``: weight stacks of shapes
        (n, hidden, f), (n, hidden), (n, k, hidden), (n, k) and the
        (n, epochs) mean epoch losses.
    """
    states = np.asarray(states, dtype=float)
    observations = np.asarray(observations, dtype=float)
    n, t_len, n_features = observations.shape
    n_states = states.shape[2]
    w1 = np.empty((n, hidden, n_features))
    w2 = np.empty((n, n_states, hidden))
    orders = np.empty((n, epochs, t_len), dtype=np.intp)
    for i, seed in enumerate(seeds):
        rng = seeded_rng(seed)
        w1[i] = Dense(n_features, hidden, rng=rng).weight
        w2[i] = Dense(hidden, n_states, rng=rng).weight
        for epoch in range(epochs):
            orders[i, epoch] = rng.permutation(t_len)
    b1 = np.zeros((n, hidden))
    b2 = np.zeros((n, n_states))
    starts = range(0, t_len, batch_size)
    losses = np.empty((n, epochs, len(starts)))
    rows = np.arange(n)[:, None]
    for epoch in range(epochs):
        for j, start in enumerate(starts):
            idx = orders[:, epoch, start:start + batch_size]
            x = observations[rows, idx]
            hid = np.tanh(np.matmul(x, np.swapaxes(w1, 1, 2))
                          + b1[:, None, :])
            diff = (np.matmul(hid, np.swapaxes(w2, 1, 2))
                    + b2[:, None, :] - states[rows, idx])
            losses[:, epoch, j] = np.mean(
                (diff ** 2).reshape(n, -1), axis=1)
            grad = 2.0 * diff / diff[0].size
            grad_hid = np.matmul(grad, w2) * (1.0 - hid ** 2)
            updates = (
                (w1, np.matmul(np.swapaxes(grad_hid, 1, 2), x)),
                (b1, grad_hid.sum(axis=1)),
                (w2, np.matmul(np.swapaxes(grad, 1, 2), hid)),
                (b2, grad.sum(axis=1)))
            for param, param_grad in updates:
                # The scalar gradients accumulate into zeroed buffers;
                # adding 0.0 replays that (it turns -0.0 into +0.0).
                param -= learning_rate * (param_grad + 0.0)
    return w1, b1, w2, b2, np.mean(losses, axis=2)


#: Batched fits and the scalar fits they must match bit-for-bit
#: (checked by the parity-oracle lint rule and
#: tests/fleet/test_parity.py).
PARITY_ORACLES = {"dnn_fit_batch": "fit"}


class _KalmanBatch:
    """Stacked closed-loop Kalman stepping (constant affine operator)."""

    def __init__(self, a, w, h, q) -> None:
        self.gain, self.x_prior, self.hx_prior = closed_loop_gain_batch(
            a, w, h, q)

    def decode(self, features: np.ndarray,
               idx: np.ndarray) -> np.ndarray:
        innovation = (features - self.hx_prior[idx])[:, :, None]
        return self.x_prior[idx] + np.matmul(self.gain[idx],
                                             innovation)[:, :, 0]


class _WienerBatch:
    """Stacked zero-history Wiener stepping."""

    def __init__(self, weights: np.ndarray, n_lags: int) -> None:
        self.weights = weights
        self.n_lags = n_lags

    def decode(self, features: np.ndarray,
               idx: np.ndarray) -> np.ndarray:
        return decode_step_batch(self.weights[idx], features,
                                 self.n_lags)


class _DnnBatch:
    """Stacked ``Dense → Tanh → Dense`` forward (batched matmuls)."""

    def __init__(self, w1, b1, w2, b2) -> None:
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2

    def decode(self, features: np.ndarray,
               idx: np.ndarray) -> np.ndarray:
        x = features[:, None, :]
        x = np.tanh(np.matmul(x, np.swapaxes(self.w1[idx], 1, 2))
                    + self.b1[idx][:, None, :])
        x = (np.matmul(x, np.swapaxes(self.w2[idx], 1, 2))
             + self.b2[idx][:, None, :])
        return x[:, 0, :]


def make_batch_decoder(spec: CohortSpec, cohort_seed: int | None,
                       calibration: Iterable[tuple[np.ndarray,
                                                   np.ndarray]]):
    """Fit every session of a cohort and stack the fits into one
    batched stepper.

    ``calibration`` yields ``(states, observations)`` blocks of shape
    (b, T, k) and (b, T, m) with ``T = spec.train_timesteps``,
    sessions in order; it is consumed before
    this returns, so a lazily drawn block sequence holds only one
    block of features at a time.  The fit runs under one
    ``decoders.<family>.fit_batch`` span and its telemetry is one
    event per counter per cohort, whatever the session count.  Every
    fitted parameter equals the scalar fit of
    :func:`make_session_decoder`'s decoder (the parity oracle).

    The returned object exposes ``decode(features, idx) -> (len(idx),
    k)`` where ``features`` holds one window for each *active* session
    and ``idx`` selects those sessions' models from the stacks.
    """
    template = make_session_decoder(spec, cohort_seed, 0)
    with span(f"decoders.{spec.decoder}.fit_batch",
              sessions=spec.n_sessions):
        parts, offset = [], 0
        for states, observations in calibration:
            if spec.decoder == "kalman":
                parts.append(kalman.fit_batch(
                    states, observations, template.regularization))
            elif spec.decoder == "wiener":
                parts.append((wiener.fit_batch(
                    states, observations, template.n_lags,
                    template.regularization),))
            else:
                seeds = [_dnn_seed(cohort_seed, i)
                         for i in range(offset, offset + len(states))]
                parts.append(dnn_fit_batch(
                    states, observations, seeds, template.hidden,
                    template.epochs, template.batch_size,
                    template.learning_rate))
            offset += len(states)
        stacks = [np.concatenate(column) for column in zip(*parts)]
        if spec.decoder == "dnn":
            _count_dnn_fit(template, spec.train_timesteps, stacks)
    if spec.decoder == "kalman":
        return _KalmanBatch(*stacks)
    if spec.decoder == "wiener":
        return _WienerBatch(*stacks, template.n_lags)
    return _DnnBatch(*stacks[:4])


def _count_dnn_fit(template: DnnCursorDecoder, t_len: int,
                   stacks: list[np.ndarray]) -> None:
    """The cohort totals of the counters the scalar DNN fits report
    (``Network.forward`` and :meth:`DnnDecoder.fit`), one metric event
    each."""
    w1, _, w2, _, history = stacks
    n, n_states = w2.shape[:2]
    n_features = w1.shape[2]
    passes = n * template.epochs * -(-t_len // template.batch_size)
    samples = n * template.epochs * t_len
    inc("dnn.forward_passes", passes)
    inc("dnn.samples_processed", samples)
    inc("dnn.macs_executed",
        samples * (fmac_dense(n_features, template.hidden).total_macs
                   + fmac_dense(template.hidden, n_states).total_macs))
    inc("decoders.dnn_epochs_trained", history.size)
    observe_many("decoders.dnn_final_loss", history[:, -1].tolist())
