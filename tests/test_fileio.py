"""Atomic artifact writes: a writer that fails partway publishes nothing."""

from __future__ import annotations

import pytest

from repro import fileio
from repro.experiments.report import write_csv
from repro.fileio import atomic_write
from repro.obs.events import EventLog
from repro.obs.manifest import write_manifest


class _Unprintable:
    """A CSV cell whose rendering fails, after earlier rows were
    written."""

    def __str__(self) -> str:
        raise RuntimeError("cannot render")


def _failing_rows() -> list[dict]:
    return [{"a": 1, "b": 2}] * 50 + [{"a": _Unprintable(), "b": 3}]


def test_success_publishes_same_bytes_as_plain_write(tmp_path):
    target = tmp_path / "out.txt"
    with atomic_write(target, encoding="utf-8") as handle:
        handle.write("line\n")
    plain = tmp_path / "plain.txt"
    plain.write_text("line\n", encoding="utf-8")
    assert target.read_bytes() == plain.read_bytes()
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "out.txt", "plain.txt"]


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_failure_leaves_absent_target_absent(tmp_path, error):
    target = tmp_path / "out.txt"
    with pytest.raises(error):
        with atomic_write(target) as handle:
            handle.write("partial")
            raise error()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_failure_leaves_existing_target_unchanged(tmp_path, error):
    target = tmp_path / "out.txt"
    target.write_text("previous\n")
    with pytest.raises(error):
        with atomic_write(target) as handle:
            handle.write("partial")
            raise error()
    assert target.read_text() == "previous\n"
    assert list(tmp_path.iterdir()) == [target]


def test_csv_writer_failing_partway_publishes_nothing(tmp_path):
    target = tmp_path / "fig.csv"
    with pytest.raises(RuntimeError, match="cannot render"):
        write_csv(target, _failing_rows())
    assert list(tmp_path.iterdir()) == []

    write_csv(target, [{"a": 1, "b": 2}])
    before = target.read_bytes()
    with pytest.raises(RuntimeError, match="cannot render"):
        write_csv(target, _failing_rows())
    assert target.read_bytes() == before
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize("write", [
    lambda path: write_csv(path, [{"a": 1}]),
    lambda path: write_manifest(path, {"name": "fig"}),
    lambda path: EventLog().write_jsonl(path),
], ids=["csv", "manifest", "events"])
def test_artifact_writers_publish_atomically(tmp_path, monkeypatch, write):
    """Each artifact writer goes through the temp file: failing at the
    publishing rename leaves the previous artifact in place."""
    target = tmp_path / "artifact"
    target.write_text("previous\n")

    def refuse(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(fileio.os, "replace", refuse)
    with pytest.raises(OSError, match="disk gone"):
        write(target)
    assert target.read_text() == "previous\n"
    assert list(tmp_path.iterdir()) == [target]
