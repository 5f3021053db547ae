"""Wiener-filter (regularized linear regression with lags) decoder.

The other traditional BCI decoder the paper cites (Section 2.3): the state
at time t is a linear readout of the last ``n_lags`` feature frames.  No
dynamics model — just ridge regression on a lag-embedded design matrix.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.obs.metrics import inc
from repro.obs.trace import span


class WienerFilterDecoder:
    """Lagged linear decoder.

    Args:
        n_lags: number of past feature frames (including current) used per
            prediction.
        regularization: ridge coefficient.
    """

    def __init__(self, n_lags: int = 5, regularization: float = 1e-3) -> None:
        if n_lags < 1:
            raise ValueError("need at least one lag (the current frame)")
        if regularization < 0:
            raise ValueError("regularization must be non-negative")
        self.n_lags = n_lags
        self.regularization = regularization
        self.weights: np.ndarray | None = None

    @property
    def fitted(self) -> bool:
        """True after :meth:`fit`."""
        return self.weights is not None

    def fit(self, states: np.ndarray, observations: np.ndarray) -> None:
        """Fit readout weights by ridge regression.

        Raises:
            ValueError: on mismatched or insufficient data.
        """
        states = np.asarray(states, dtype=float)
        observations = np.asarray(observations, dtype=float)
        if len(states) != len(observations):
            raise ValueError("states and observations must align in time")
        if len(states) <= self.n_lags:
            raise ValueError("need more timesteps than lags")
        with span("decoders.wiener.fit", timesteps=len(states),
                  n_lags=self.n_lags):
            design = _embed(observations, self.n_lags)
            gram = design.T @ design + self.regularization * np.eye(
                design.shape[1])
            self.weights = np.linalg.solve(gram, design.T @ states)

    def decode(self, observations: np.ndarray) -> np.ndarray:
        """Predict states for a feature sequence.

        Raises:
            RuntimeError: if called before :meth:`fit`.
        """
        if not self.fitted:
            raise RuntimeError("decoder must be fitted before decoding")
        observations = np.asarray(observations, dtype=float)
        inc("decoders.wiener_steps", len(observations))
        with span("decoders.wiener.decode",
                  timesteps=len(observations)):
            return _embed(observations, self.n_lags) @ self.weights

    def score(self, states: np.ndarray, observations: np.ndarray) -> float:
        """Mean per-dimension correlation between truth and prediction."""
        decoded = self.decode(observations)
        states = np.asarray(states, dtype=float)
        correlations = []
        for dim in range(states.shape[1]):
            truth, est = states[:, dim], decoded[:, dim]
            if np.std(truth) == 0 or np.std(est) == 0:
                correlations.append(0.0)
            else:
                correlations.append(float(np.corrcoef(truth, est)[0, 1]))
        return float(np.mean(correlations))


def _embed(observations: np.ndarray, n_lags: int) -> np.ndarray:
    """Lag-embed (..., T, m) features: row t holds frames
    t-n_lags+1 .. t plus a bias term.

    Early rows use zero padding for missing history.  Leading axes
    are sessions, so one call embeds a whole stack.
    """
    *lead, t_len, m = observations.shape
    padded = np.concatenate(
        [np.zeros((*lead, n_lags - 1, m)), observations], axis=-2)
    windows = sliding_window_view(padded, n_lags, axis=-2)
    design = np.empty((*lead, t_len, n_lags * m + 1))
    design[..., :-1] = np.swapaxes(windows, -1, -2).reshape(
        *lead, t_len, n_lags * m)
    design[..., -1] = 1.0
    return design


def fit_batch(states: np.ndarray, observations: np.ndarray,
              n_lags: int = 5, regularization: float = 1e-3) -> np.ndarray:
    """Batched :meth:`WienerFilterDecoder.fit` over a stack of sessions.

    The scalar ridge normal equations as one batched ``matmul`` over
    ``swapaxes`` and one stacked ``solve``; every product replays the
    scalar operation per session slice (``design.T @ design`` keeps
    numpy's ``syrk`` path), so slice ``i`` is bit-for-bit the weights
    ``fit`` computes from ``states[i]`` and ``observations[i]``.  The
    design stack holds ``n * T * (n_lags * m + 1)`` floats, so callers
    bound memory by fitting sessions in blocks.

    Args:
        states: (n, T, k) targets per session.
        observations: (n, T, m) features per session.
        n_lags / regularization: as in :class:`WienerFilterDecoder`.

    Returns:
        (n, n_lags * m + 1, k) stacked readout weights.

    Raises:
        ValueError: on mismatched or insufficient data.
    """
    states = np.asarray(states, dtype=float)
    observations = np.asarray(observations, dtype=float)
    if states.shape[:2] != observations.shape[:2]:
        raise ValueError("states and observations must align in time")
    if states.shape[1] <= n_lags:
        raise ValueError("need more timesteps than lags")
    design = _embed(observations, n_lags)
    design_t = np.swapaxes(design, 1, 2)
    gram = np.matmul(design_t, design) + regularization * np.eye(
        design.shape[2])
    return np.linalg.solve(gram, np.matmul(design_t, states))


#: Batched fits and the scalar fits they must match bit-for-bit
#: (checked by the parity-oracle lint rule and
#: tests/fleet/test_parity.py).
PARITY_ORACLES = {"fit_batch": "fit"}


def decode_step_batch(weights: np.ndarray, features: np.ndarray,
                      n_lags: int) -> np.ndarray:
    """Batched single-window Wiener decode over a stack of sessions.

    The closed-loop session decodes each feature window in isolation
    (``decode(feature[None, :])``), so the lag history is always the
    zero padding: the design row is ``[0 … 0, feature, 1.0]``.  This
    applies that row to every session's readout in one batched matmul,
    bit-for-bit equal to the scalar per-session decode (the (1, D) @
    (D, k) product runs the same BLAS kernel per slice).

    Args:
        weights: (n, n_lags * m + 1, k) stacked fitted readouts.
        features: (n, m) one feature window per session.
        n_lags: lag count the readouts were fitted with.

    Returns:
        (n, k) decoded states.
    """
    weights = np.asarray(weights, dtype=float)
    features = np.asarray(features, dtype=float)
    n, m = features.shape
    design = np.zeros((n, 1, weights.shape[1]))
    design[:, 0, (n_lags - 1) * m:-1] = features
    design[:, 0, -1] = 1.0
    return np.matmul(design, weights)[:, 0, :]
