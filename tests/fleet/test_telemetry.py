"""Fleet telemetry stays bounded and keeps its totals.

The batched fits report one span and one event per counter per cohort,
so a fleet's event log does not grow with its session count, while the
``--metrics`` counters still equal the sums the per-session scalar
fits would report.
"""

import contextlib
import io
import json
import re

import pytest

from repro.cli import main
from repro.experiments import fleet as fleet_driver
from repro.fleet import CohortSpec

SESSIONS = (20, 200)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``fleet --events --metrics`` at each size: (events, metrics)."""
    outcomes = {}
    for sessions in SESSIONS:
        out = tmp_path_factory.mktemp(f"fleet{sessions}")
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert main(["fleet", "--seed", "3", "--sessions",
                         str(sessions), "--events", "--metrics",
                         "--quiet", "--output-dir", str(out)]) == 0
        events = [json.loads(line) for line in
                  (out / "events.jsonl").read_text().splitlines()]
        outcomes[sessions] = (events, metrics_block(printed.getvalue()))
    return outcomes


def metrics_block(stdout: str) -> dict[str, str]:
    """``name -> value`` lines of the printed ``-- metrics --`` block."""
    block = stdout.split("-- metrics --", 1)[1]
    return {match[1]: match[2] for match in
            re.finditer(r"^(\S+)\s+(.+)$", block, re.MULTILINE)}


def test_event_log_size_does_not_grow_with_sessions(runs):
    small, large = (len(runs[n][0]) for n in SESSIONS)
    assert small == large


def test_final_losses_are_one_event_per_cohort(runs):
    for sessions in SESSIONS:
        events, _ = runs[sessions]
        losses = [e for e in events
                  if e["name"] == "decoders.dnn_final_loss"]
        assert len(losses) == 1
        assert losses[0]["attrs"]["op"] == "observe_many"
        assert losses[0]["attrs"]["count"] == sessions


def test_one_fit_batch_span_per_cohort(runs):
    events, _ = runs[SESSIONS[-1]]
    fits = [e["name"] for e in events if e["kind"] == "span_start"
            and e["name"].endswith(".fit_batch")]
    families = [c.decoder for c in fleet_driver.default_fleet().cohorts]
    assert fits == [f"decoders.{family}.fit_batch"
                    for family in families]


@pytest.mark.parametrize("sessions", SESSIONS)
def test_counters_match_per_session_closed_form(runs, sessions):
    _, metrics = runs[sessions]
    spec = CohortSpec(name="dnn", decoder="dnn",
                      train_timesteps=fleet_driver.TRAIN_TIMESTEPS)
    batch_size = 32
    passes = spec.epochs * -(-spec.train_timesteps // batch_size)
    assert passes == 15  # the default shape: 3 epochs of 5 mini-batches
    samples = spec.epochs * spec.train_timesteps
    macs = (spec.n_channels * spec.hidden + spec.hidden * 2) * samples
    cohorts = fleet_driver.default_fleet().cohorts
    n_kalman = sum(c.decoder == "kalman" for c in cohorts)
    assert metrics["dnn.forward_passes"] == str(passes * sessions)
    assert metrics["dnn.samples_processed"] == str(samples * sessions)
    assert metrics["dnn.macs_executed"] == str(macs * sessions)
    assert metrics["decoders.dnn_epochs_trained"] == str(
        spec.epochs * sessions)
    assert metrics["decoders.kalman_gain_batches"] == str(
        n_kalman * sessions)
    assert metrics["fleet.sessions"] == str(len(cohorts) * sessions)
    assert metrics["decoders.dnn_final_loss"].startswith(
        f"n={sessions} ")
