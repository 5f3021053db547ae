"""DSP front-end filters for neural recordings.

The standard conditioning chain applied before any decoding: band-pass
filtering into the physiological band of interest (LFP 1-300 Hz, spikes
300-6000 Hz), mains-notch removal, and common-average referencing (CAR)
to reject signals shared across the array.  Built on scipy's IIR design,
applied with zero-phase filtering so decoders see no group delay.
"""

from __future__ import annotations

import numpy as np


def bandpass(data: np.ndarray, low_hz: float, high_hz: float,
             sampling_rate_hz: float, order: int = 4) -> np.ndarray:
    """Zero-phase Butterworth band-pass along the last axis.

    Args:
        data: (..., n_samples) waveforms.
        low_hz / high_hz: pass-band edges.
        sampling_rate_hz: sampling rate.
        order: filter order (doubled by the forward-backward pass).

    Raises:
        ValueError: for invalid band edges.
    """
    nyquist = sampling_rate_hz / 2.0
    if not 0.0 < low_hz < high_hz < nyquist:
        raise ValueError(
            f"need 0 < low ({low_hz}) < high ({high_hz}) < nyquist "
            f"({nyquist})")
    from scipy import signal as sp_signal

    sos = sp_signal.butter(order, [low_hz / nyquist, high_hz / nyquist],
                           btype="band", output="sos")
    return sp_signal.sosfiltfilt(sos, np.asarray(data, dtype=float),
                                 axis=-1)


def notch(data: np.ndarray, freq_hz: float, sampling_rate_hz: float,
          quality: float = 30.0) -> np.ndarray:
    """Zero-phase IIR notch (mains interference removal).

    Raises:
        ValueError: for a notch at or above Nyquist.
    """
    nyquist = sampling_rate_hz / 2.0
    if not 0.0 < freq_hz < nyquist:
        raise ValueError(f"notch frequency must lie in (0, {nyquist})")
    if quality <= 0:
        raise ValueError("quality factor must be positive")
    from scipy import signal as sp_signal

    b, a = sp_signal.iirnotch(freq_hz / nyquist, quality)
    return sp_signal.filtfilt(b, a, np.asarray(data, dtype=float),
                              axis=-1)


def common_average_reference(data: np.ndarray) -> np.ndarray:
    """Subtract the instantaneous across-channel mean (CAR).

    Args:
        data: (n_channels, n_samples) array.

    Raises:
        ValueError: for non-2-D input or a single channel.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError("CAR expects (n_channels, n_samples)")
    if data.shape[0] < 2:
        raise ValueError("CAR needs at least two channels")
    return data - data.mean(axis=0, keepdims=True)


def spike_band(data: np.ndarray, sampling_rate_hz: float) -> np.ndarray:
    """The conventional spike band (300 Hz - min(6 kHz, 0.45 fs))."""
    high = min(6000.0, 0.45 * sampling_rate_hz)
    return bandpass(data, 300.0, high, sampling_rate_hz)


def lfp_band(data: np.ndarray, sampling_rate_hz: float) -> np.ndarray:
    """The conventional LFP band (1 - min(300, 0.45 fs) Hz)."""
    high = min(300.0, 0.45 * sampling_rate_hz)
    return bandpass(data, 1.0, high, sampling_rate_hz)
