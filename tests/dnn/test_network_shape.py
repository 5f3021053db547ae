"""Closed-form workload shapes against the built networks (their oracle).

The design-space analysis reads MAC profiles, layer output sizes,
admissible partitions and parameter counts from
:func:`speech_mlp_shape` / :func:`speech_dncnn_shape` instead of building
a :class:`Network`.  Each must equal what ``build_speech_mlp`` /
``build_speech_dncnn`` networks report, and no network may be built on
the query path.
"""

import pytest

from repro.core import comp_centric, partitioning
from repro.core.comp_centric import Workload
from repro.core.explorer import explore
from repro.core.optimizations import evaluate_ladder
from repro.core.partitioning import admissible_splits
from repro.core.scaling import scale_to_standard
from repro.core.socs import soc_by_number
from repro.dnn.models import (
    build_speech_dncnn,
    build_speech_mlp,
    speech_dncnn_shape,
    speech_mlp_shape,
)
from repro.dnn.network import Network

CHANNELS = (1, 16, 100, 128, 1000, 1024, 2048, 4097, 16384)

PAIRS = [(speech_mlp_shape, build_speech_mlp),
         (speech_dncnn_shape, build_speech_dncnn)]


@pytest.mark.parametrize("n", CHANNELS)
@pytest.mark.parametrize("shape_of, build", PAIRS,
                         ids=["mlp", "dncnn"])
def test_shape_matches_built_network(shape_of, build, n):
    shape = shape_of(n)
    net = build(n)
    assert shape.mac_profiles == tuple(net.mac_profiles())
    assert (tuple(p.mac_ops for p in shape.mac_profiles)
            == tuple(net.compute_layer_output_values()))
    assert shape.n_parameters == net.n_parameters
    assert shape.output_values == net.output_values
    assert shape.total_macs == net.total_macs


@pytest.mark.parametrize("n", CHANNELS)
@pytest.mark.parametrize("workload", list(Workload))
def test_split_candidates_match_network_heads(workload, n):
    net = comp_centric.build_workload(workload, n)
    candidates = partitioning._split_candidates(workload, n, 1024)
    splits = admissible_splits(net)
    assert [c[0] for c in candidates] == [None] + splits
    sizes = net.compute_layer_output_values()
    assert candidates[0] == (None, tuple(net.mac_profiles()),
                             net.output_values)
    for split, profiles, transmitted in candidates[1:]:
        assert profiles == tuple(net.head(split).mac_profiles())
        assert transmitted == sizes[split - 1]
    assert (comp_centric._workload_profile(workload, n)
            == (tuple(net.mac_profiles()), net.output_values,
                net.total_macs, net.n_parameters))


def test_shape_rejects_what_the_builders_reject():
    for shape_of, build in PAIRS:
        for bad in (0, -3):
            with pytest.raises(ValueError):
                build(bad)
            with pytest.raises(ValueError):
                shape_of(bad)
    with pytest.raises(ValueError):
        speech_dncnn_shape(64, kernel_size=4)


def test_queries_build_no_network(monkeypatch):
    """explore and the Fig. 12 ladder answer without a Network."""
    comp_centric._workload_profile.cache_clear()
    partitioning._split_candidates.cache_clear()

    def refuse(self, *args, **kwargs):
        raise AssertionError("a Network was built on the query path")

    monkeypatch.setattr(Network, "__init__", refuse)
    soc = scale_to_standard(soc_by_number(1))
    report = explore(soc, target_channels=4096)
    assert len(report.outcomes) == 10
    designs = evaluate_ladder(soc, 4096)
    assert [d.step_name for d in designs] == [
        "ChDr", "La+ChDr", "La+ChDr+Tech", "La+ChDr+Tech+Dense"]
