"""The paper's two BCI workloads: speech-synthesis MLP and DN-CNN.

Paper Section 5.3 evaluates a multi-layer perceptron and a DenseNet-style
convolutional network "trained for speech synthesis using ECoG neural data"
(Berezutskaya et al.), originally designed for 128 channels at 2 kHz with a
40-label spectral output.  The exact published layer shapes are not in the
paper; the architectures here are shape-equivalent reconstructions
(DESIGN.md substitution 3) whose base sizes are calibrated so the Fig. 10
feasibility crossovers land near the paper's ~1800 (MLP) / ~1400 (DN-CNN)
channel counts.

Alpha scaling (Section 5.3, "Scaling Factor"): with
``alpha = input size / original input size = n / 128``, layer widths scale
linearly with n and network depth grows with ``log2(alpha)`` extra hidden
layers — width growth alone already makes total MACs quadratic in n, the
super-linear growth the paper requires, while logarithmic depth growth
keeps the model family trainable.

Architecture notes relevant to partitioning (Section 6.1):

* The MLP narrows to an ``n // 4`` bottleneck after its second compute
  layer; that is the earliest layer whose output can be streamed within a
  1024-channel transceiver's data rate (for n <= 4096), so layer reduction
  helps the MLP.
* The DN-CNN's feature maps are all wider than 1024 values until the final
  40-label layer, so no useful split exists — matching the paper's finding
  that the DN-CNN gains nothing from partitioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.dnn.layers import AvgPool1D, Conv1D, Dense, Flatten, ReLU, Tanh
from repro.dnn.macs import LayerMacs
from repro.dnn.network import Network

#: Original workload parameters (paper Section 5.3).
SPEECH_BASE_CHANNELS = 128
SPEECH_BASE_SAMPLING_HZ = 2_000.0
SPEECH_OUTPUT_LABELS = 40

#: Input window length in samples per channel.
SPEECH_WINDOW = 2


def alpha_scaling_factor(n_channels: int,
                         base_channels: int = SPEECH_BASE_CHANNELS) -> float:
    """alpha = input size / original input size (Section 5.3)."""
    if n_channels <= 0 or base_channels <= 0:
        raise ValueError("channel counts must be positive")
    return n_channels / base_channels


def _extra_depth(alpha: float) -> int:
    """Extra hidden layers contributed by depth scaling: ~log2(alpha)."""
    if alpha < 1.0:
        return 0
    return max(0, round(math.log2(alpha)))


def _mlp_widths(n_channels: int, window: int, n_outputs: int) -> list[int]:
    """Feature widths of the speech MLP, input first, output last."""
    n = n_channels
    widths = [window * n, 2 * n, max(16, n // 4), n]
    widths += [n] * _extra_depth(alpha_scaling_factor(n))
    widths.append(n_outputs)
    return widths


def build_speech_mlp(n_channels: int,
                     rng: np.random.Generator | None = None,
                     window: int = SPEECH_WINDOW,
                     n_outputs: int = SPEECH_OUTPUT_LABELS) -> Network:
    """The speech-synthesis MLP scaled to ``n_channels``.

    Structure (widths in units of n = n_channels):
    ``Dense(window*n -> 2n)`` -> ``Dense(2n -> n/4)`` [bottleneck]
    -> ``Dense(n/4 -> n)`` -> ``log2(alpha)`` x ``Dense(n -> n)``
    -> ``Dense(n -> 40)``, ReLU between hidden layers, Tanh head.

    Args:
        n_channels: NI channel count feeding the network.
        rng: materializes weights when given; omit for shape-only analysis.
        window: samples per channel in the input frame.
        n_outputs: output labels (40 speech frequencies in the paper).
    """
    if n_channels <= 0:
        raise ValueError("n_channels must be positive")
    widths = _mlp_widths(n_channels, window, n_outputs)
    layers = []
    for i in range(len(widths) - 1):
        layers.append(Dense(widths[i], widths[i + 1], rng=rng))
        is_last = i == len(widths) - 2
        layers.append(Tanh() if is_last else ReLU())
    return Network(layers, input_shape=(window * n_channels,),
                   name=f"speech-mlp-{n_channels}ch")


def _dncnn_plan(n_channels: int, window: int, n_outputs: int,
                kernel_size: int) -> tuple[list[int], int, list[int]]:
    """(conv channel chain, pool size, dense widths) of the DN-CNN.

    The conv chain starts at the input's ``window`` channels; a pool
    size of 1 means the length admits neither pool-by-4 nor pool-by-2.
    """
    if n_channels <= 0:
        raise ValueError("n_channels must be positive")
    if kernel_size % 2 != 1:
        raise ValueError("kernel_size must be odd for 'same' padding")
    n = n_channels
    channels = [window, 8, 16, 16]
    channels += [16] * _extra_depth(alpha_scaling_factor(n))
    pool = next((size for size in (4, 2) if n % size == 0), 1)
    return channels, pool, [channels[-1] * (n // pool), 2 * n, n, n_outputs]


def build_speech_dncnn(n_channels: int,
                       rng: np.random.Generator | None = None,
                       window: int = SPEECH_WINDOW,
                       n_outputs: int = SPEECH_OUTPUT_LABELS,
                       kernel_size: int = 7) -> Network:
    """The DenseNet-style speech CNN (DN-CNN) scaled to ``n_channels``.

    Convolutions run across the channel axis (length n), treating the
    time window as input channels, densely increasing feature counts
    (4 -> 8 -> 16 -> 16...), followed by pooling and a dense head.

    Args:
        n_channels: NI channel count (the convolution axis length).
        rng: materializes weights when given; omit for shape-only analysis.
        window: input time window, used as conv input channels.
        n_outputs: output labels.
        kernel_size: conv receptive field (odd; 'same' padding).
    """
    channels, pool, dense = _dncnn_plan(n_channels, window, n_outputs,
                                        kernel_size)
    pad = kernel_size // 2
    layers: list = []
    for c_in, c_out in zip(channels[:-1], channels[1:]):
        layers += [Conv1D(c_in, c_out, kernel_size, padding=pad, rng=rng),
                   ReLU()]
    # Pool by 4 where the length allows it, then the dense head.
    if pool > 1:
        layers.append(AvgPool1D(pool))
    layers.append(Flatten())
    for i in range(len(dense) - 1):
        is_last = i == len(dense) - 2
        layers += [Dense(dense[i], dense[i + 1], rng=rng),
                   Tanh() if is_last else ReLU()]
    return Network(layers, input_shape=(window, n_channels),
                   name=f"speech-dncnn-{n_channels}ch")


@dataclass(frozen=True)
class NetworkShape:
    """What the design-space analysis reads off a shape-only network,
    derived in closed form so no :class:`Network` is built.

    A compute layer's output size is its MACop count (one MACop per
    output value, the Fig. 8 convention), so the per-layer output sizes
    of ``Network.compute_layer_output_values()`` are the profiles'
    ``mac_ops``.

    Attributes:
        mac_profiles: Eq. 10 profile of each compute layer
            (``Network.mac_profiles()``).
        n_parameters: trainable parameters (``Network.n_parameters``).
    """

    mac_profiles: tuple[LayerMacs, ...]
    n_parameters: int

    @property
    def output_values(self) -> int:
        """Values per output sample; both workloads end in a compute
        layer followed by an activation."""
        return self.mac_profiles[-1].mac_ops

    @property
    def total_macs(self) -> int:
        """Total accumulate steps for one inference."""
        return sum(p.total_macs for p in self.mac_profiles)


def _profiles(pairs: list[tuple[int, int]]) -> tuple[LayerMacs, ...]:
    """One :class:`LayerMacs` per ``(MACseq, #MACop)`` pair; the equal
    layers of a deep stack share one object."""
    made = {pair: LayerMacs(*pair) for pair in dict.fromkeys(pairs)}
    return tuple(made[pair] for pair in pairs)


def speech_mlp_shape(n_channels: int,
                     window: int = SPEECH_WINDOW,
                     n_outputs: int = SPEECH_OUTPUT_LABELS) -> NetworkShape:
    """Closed-form :class:`NetworkShape` of :func:`build_speech_mlp`: a
    dense layer of ``i -> o`` features is ``o`` MACops of depth ``i``
    with ``i * o + o`` parameters."""
    if n_channels <= 0:
        raise ValueError("n_channels must be positive")
    widths = _mlp_widths(n_channels, window, n_outputs)
    pairs = list(zip(widths[:-1], widths[1:]))
    return NetworkShape(mac_profiles=_profiles(pairs),
                        n_parameters=sum(i * o + o for i, o in pairs))


def speech_dncnn_shape(n_channels: int,
                       window: int = SPEECH_WINDOW,
                       n_outputs: int = SPEECH_OUTPUT_LABELS,
                       kernel_size: int = 7) -> NetworkShape:
    """Closed-form :class:`NetworkShape` of :func:`build_speech_dncnn`.

    'Same' padding keeps every conv output n long, so a ``c_in -> c_out``
    conv is ``c_out * n`` MACops of depth ``kernel_size * c_in``; pooling
    and flattening carry no MACs and no parameters.
    """
    channels, _, dense = _dncnn_plan(n_channels, window, n_outputs,
                                     kernel_size)
    convs = list(zip(channels[:-1], channels[1:]))
    denses = list(zip(dense[:-1], dense[1:]))
    return NetworkShape(
        mac_profiles=_profiles(
            [(kernel_size * c_in, c_out * n_channels) for c_in, c_out in convs]
            + denses),
        n_parameters=(sum(c_in * c_out * kernel_size + c_out
                          for c_in, c_out in convs)
                      + sum(i * o + o for i, o in denses)))


#: Closed-form shapes and the builders whose networks they must match
#: exactly (checked by the parity-oracle lint rule and
#: tests/dnn/test_network_shape.py): the built network's
#: ``mac_profiles``, ``compute_layer_output_values`` and
#: ``n_parameters`` are the oracle.
PARITY_ORACLES = {
    "speech_mlp_shape": "build_speech_mlp",
    "speech_dncnn_shape": "build_speech_dncnn",
}
