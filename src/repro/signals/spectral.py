"""Spectral feature extraction for ECoG decoding.

The speech-decoding workloads the paper evaluates consume *band-power*
features, not raw samples: Welch power spectral density per channel,
band-power integration (the high-gamma band carries most articulatory
information), and a sliding-window envelope extractor that produces the
frame stream a decoder ingests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: The canonical ECoG analysis bands [Hz].
CANONICAL_BANDS: dict[str, tuple[float, float]] = {
    "delta": (1.0, 4.0),
    "theta": (4.0, 8.0),
    "alpha": (8.0, 13.0),
    "beta": (13.0, 30.0),
    "gamma": (30.0, 70.0),
    "high_gamma": (70.0, 170.0),
}


def welch_psd(data: np.ndarray, sampling_rate_hz: float,
              segment_s: float = 0.25) -> tuple[np.ndarray, np.ndarray]:
    """Welch PSD along the last axis.

    Args:
        data: (..., n_samples) waveforms.
        sampling_rate_hz: sampling rate.
        segment_s: Welch segment length in seconds.

    Returns:
        (frequencies, psd) with psd shaped (..., n_freqs).

    Raises:
        ValueError: if the segment is longer than the data.
    """
    data = np.asarray(data, dtype=float)
    nperseg = int(round(segment_s * sampling_rate_hz))
    if nperseg < 8:
        raise ValueError("segment too short for a meaningful PSD")
    if data.shape[-1] < nperseg:
        raise ValueError("data shorter than one Welch segment")
    from scipy import signal as sp_signal

    freqs, psd = sp_signal.welch(data, fs=sampling_rate_hz,
                                 nperseg=nperseg, axis=-1)
    return freqs, psd


def band_power(data: np.ndarray, sampling_rate_hz: float,
               low_hz: float, high_hz: float,
               segment_s: float = 0.25) -> np.ndarray:
    """Integrated PSD power within a band, per channel.

    Raises:
        ValueError: for an empty band or band above Nyquist.
    """
    if not 0.0 <= low_hz < high_hz:
        raise ValueError("need 0 <= low < high")
    if high_hz > sampling_rate_hz / 2.0:
        raise ValueError("band extends beyond Nyquist")
    freqs, psd = welch_psd(data, sampling_rate_hz, segment_s)
    mask = (freqs >= low_hz) & (freqs <= high_hz)
    if not np.any(mask):
        raise ValueError("no PSD bins inside the requested band")
    return np.trapezoid(psd[..., mask], freqs[mask], axis=-1)


def band_power_features(data: np.ndarray, sampling_rate_hz: float,
                        bands: dict[str, tuple[float, float]] | None = None,
                        segment_s: float = 0.25) -> np.ndarray:
    """Stacked per-band powers: (n_channels, n_bands).

    Bands beyond Nyquist are skipped (low-rate NIs cannot carry
    high-gamma), so the feature width adapts to the interface.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    bands = bands or CANONICAL_BANDS
    nyquist = sampling_rate_hz / 2.0
    columns = []
    for low, high in bands.values():
        if high > nyquist:
            continue
        columns.append(band_power(data, sampling_rate_hz, low, high,
                                  segment_s))
    if not columns:
        raise ValueError("no band fits below Nyquist")
    return np.stack(columns, axis=-1)


@dataclass(frozen=True)
class EnvelopeExtractor:
    """Sliding-window band-power envelope (the decoder's frame stream).

    Attributes:
        band_hz: analysis band (defaults to high gamma).
        frame_s: frame hop / window size.
    """

    band_hz: tuple[float, float] = CANONICAL_BANDS["high_gamma"]
    frame_s: float = 0.05

    def __post_init__(self) -> None:
        if self.frame_s <= 0:
            raise ValueError("frame length must be positive")
        low, high = self.band_hz
        if not 0.0 <= low < high:
            raise ValueError("invalid analysis band")

    def frames(self, data: np.ndarray,
               sampling_rate_hz: float) -> np.ndarray:
        """Envelope frames of shape (n_frames, n_channels).

        Band-pass -> rectify -> per-frame mean; the standard high-gamma
        envelope pipeline.

        Raises:
            ValueError: when the band exceeds Nyquist or the recording is
                shorter than one frame.
        """
        from repro.signals.filters import bandpass
        data = np.atleast_2d(np.asarray(data, dtype=float))
        low, high = self.band_hz
        nyquist = sampling_rate_hz / 2.0
        high = min(high, 0.95 * nyquist)
        if low >= high:
            raise ValueError("analysis band collapses below Nyquist")
        filtered = bandpass(data, low, high, sampling_rate_hz)
        rectified = np.abs(filtered)
        frame_len = int(round(self.frame_s * sampling_rate_hz))
        if frame_len < 1 or data.shape[-1] < frame_len:
            raise ValueError("recording shorter than one frame")
        n_frames = data.shape[-1] // frame_len
        trimmed = rectified[:, :n_frames * frame_len]
        framed = trimmed.reshape(data.shape[0], n_frames, frame_len)
        return framed.mean(axis=-1).T
