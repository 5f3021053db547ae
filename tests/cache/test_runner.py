"""Tests for whole-driver cache payloads and keys (repro.cache.runner,
repro.cache.keys).

A driver entry stores the run's rows and summary through
:func:`encode_result` and is addressed by :func:`driver_key`; both must
stay stable, or warm runs silently stop replaying the results they
stored.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import keys
from repro.cache.runner import (
    decode_result,
    encode_result,
    result_from_payload,
    result_payload,
)
from repro.experiments.base import ExperimentResult


class TestEncodeDecode:
    def test_ndarray_roundtrips_exactly(self):
        array = np.random.default_rng(0).standard_normal((3, 5))
        again = decode_result(encode_result(array))
        assert again.dtype == array.dtype
        assert np.array_equal(again, array)

    def test_nested_structures(self):
        value = {"a": [np.arange(4), {"b": np.float64(2.5)}],
                 "c": "text", "d": None}
        again = decode_result(encode_result(value))
        assert np.array_equal(again["a"][0], np.arange(4))
        assert again["a"][1]["b"] == 2.5
        assert again["c"] == "text" and again["d"] is None

    def test_int_dtypes_survive(self):
        array = np.array([[1, 2], [3, 4]], dtype=np.int16)
        again = decode_result(encode_result(array))
        assert again.dtype == np.int16
        assert np.array_equal(again, array)


class TestResultPayload:
    def test_result_roundtrips_with_csv_text(self):
        result = ExperimentResult(
            name="fig5", title="t", rows=[{"x": np.float64(1.5), "n": 2}],
            summary={"peak": np.int64(3)}, columns=["x", "n"], seed=7,
            derived_seed=11, duration_s=0.25)
        payload = result_payload(result, "x,n\r\n1.5,2\r\n")
        again = result_from_payload(payload)
        assert payload["csv_text"] == "x,n\r\n1.5,2\r\n"
        assert again.rows == [{"x": 1.5, "n": 2}]
        assert again.summary == {"peak": 3}
        assert (again.name, again.columns, again.seed, again.derived_seed,
                again.duration_s) == ("fig5", ["x", "n"], 7, 11, 0.25)


class TestDriverKey:
    """Pins the key layout: a change here invalidates every stored
    driver entry, so it must come with a ``KEY_SCHEMA_VERSION`` bump."""

    FINGERPRINT = "0123456789abcdef" * 4

    @pytest.fixture(autouse=True)
    def fixed_environment(self, monkeypatch):
        monkeypatch.setattr(keys, "environment_fields",
                            lambda: {"python": "3.11.7",
                                     "numpy": "1.26.4"})

    def test_int_seeds(self):
        assert keys.driver_key("fig5", self.FINGERPRINT, 7, 1234567) == (
            "43b3637510a3efdad0d15302307abaa5de4d470b870aa3ce51933c6c4c39ffe4")

    def test_numpy_int64_seeds(self):
        assert keys.driver_key("fig5", self.FINGERPRINT, np.int64(7),
                               np.int64(1234567)) == (
            "b58c57008107ff499a1dec880ef6fe3d0c960cc90c1480a33969c8f1baed7388")

    def test_unseeded(self):
        assert keys.driver_key("fig5", self.FINGERPRINT, None, None) == (
            "94f430d1d5467a7575bf6a0a646edc0cafbc57a0c4beece1ba24b33559489d84")
