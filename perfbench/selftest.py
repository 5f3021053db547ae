"""Self-tests of the benchmark: ``python3 perfbench/selftest.py``.

They check the benchmark's own machinery (metric names, output checks,
wrapper restoration, the catalogue in ``BENCHMARK.json``), not the
program; they run in a few seconds and start no child process.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import (bootstrap, cli_paper, fleet_sharded,  # noqa: E402
                       layers, tracer)
from perfbench.common import GOLDENS, Proc, Tally  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class Catalogue(unittest.TestCase):
    def test_metric_names_are_plain(self):
        bench = _bench()
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        names += list(layers.END_TO_END) + list(layers.PER_LAYER)
        for name in names:
            self.assertRegex(name, NAME)
            self.assertLessEqual(len(name), 64)

    def test_benchmark_json_matches_catalogue(self):
        bench = _bench()
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         layers.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         layers.PER_LAYER)

    def test_every_workload_says_why(self):
        workloads = _bench()["workloads"]
        self.assertEqual(tuple(w["name"] for w in workloads), WORKLOADS)
        for workload in workloads:
            self.assertTrue(workload["why"].strip())
            self.assertLessEqual(len(workload["why"]), 200)
        self.assertEqual(set(layers.OPERATIONS), set(WORKLOADS))

    def test_every_layer_reports_its_self_time(self):
        for layer in layers.LAYERS:
            self.assertIn(f"layer.{layer}.self_s", layers.PER_LAYER)

    def test_every_layer_metric_has_a_prediction(self):
        self.assertEqual(set(layers.PREDICTIONS), set(layers.PER_LAYER))
        for name, prediction in layers.PREDICTIONS.items():
            self.assertTrue(prediction.strip(), name)


def _fake_proc(out: str = "") -> Proc:
    return Proc(args=[], code=0, wall_s=0.1, maxrss_mb=1.0, out=out,
                err="")


class OutputChecks(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp())
        self.addCleanup(shutil.rmtree, self.tmp)

    def _workflow_with_goldens(self, golden_dir: Path) -> Tally:
        """Run the cli-paper workflow against a fake CLI that writes the
        golden CSVs, checking them against ``golden_dir``."""
        work = type("Work", (), {})()
        work.path = self.tmp
        work.fresh = lambda stem: Path(tempfile.mkdtemp(dir=self.tmp))
        primed = self.tmp / "primed"
        (primed / ".cache").mkdir(parents=True)
        listing = "\n".join(cli_paper.table1_names())

        def runner(args):
            if args[0] == "evaluate":
                out = Path(args[-1])
                for name in cli_paper.PAPER_CSVS:
                    shutil.copy(GOLDENS / f"{name}.csv", out)
                return _fake_proc(cli_paper.WARM_MARK), {}
            return _fake_proc(listing), {}

        tally = Tally()
        cli_paper._workflow(work, tally, primed, runner, golden_dir)
        return tally

    def test_intact_goldens_pass(self):
        tally = self._workflow_with_goldens(GOLDENS)
        self.assertEqual((tally.attempted, tally.failed), (3, 0))

    def test_corrupted_golden_raises_error_rate(self):
        corrupted = self.tmp / "goldens"
        shutil.copytree(GOLDENS, corrupted)
        path = corrupted / "fig12.csv"
        path.write_bytes(path.read_bytes().replace(b"100.0", b"100.1", 1))
        tally = self._workflow_with_goldens(corrupted)
        self.assertEqual(tally.failed, 2)  # cold and warm evaluate
        self.assertGreater(tally.error_rate, 0.0)

    def test_wrong_fleet_digest_raises_error_rate(self):
        reference, out = self.tmp / "reference", self.tmp / "out"
        for directory in (reference, out):
            directory.mkdir()
            (directory / "fleet.csv").write_text("cohort\nkalman\n")
            (directory / "events.jsonl").write_text('{"seq": 0}\n')
        tally = Tally()
        tally.op(fleet_sharded.same_outputs(out, reference), "identical")
        (out / "events.jsonl").write_text('{"seq": 1}\n')
        tally.op(fleet_sharded.same_outputs(out, reference), "tampered")
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        self.assertEqual(tally.problems, ["tampered"])

    def test_fleet_sessions_are_read_from_fleet_csv(self):
        (self.tmp / "fleet.csv").write_text(
            "cohort,decoder,sessions\nkalman,kalman,1000\n"
            "wiener,wiener,1000\ndnn,dnn,1000\n")
        self.assertEqual(fleet_sharded.fleet_sessions(self.tmp), 3000)

    def test_counters_are_read_as_counts(self):
        stdout = ("-- metrics --\nfleet.sessions    5000\n"
                  "perf.transport.bytes  4599412\n"
                  "decoders.dnn_final_loss  n=1000 mean=0.13\n")
        self.assertEqual(fleet_sharded.counters(stdout),
                         {"fleet.sessions": 5000,
                          "perf.transport.bytes": 4599412})


class Wrappers(unittest.TestCase):
    def test_traced_run_restores_every_function(self):
        from repro.core import explorer, scaling, socs

        originals = {t.where: tracer._resolve(t.where)[2]
                     for t in tracer.TARGETS}
        recorder = tracer.Recorder()
        with tracer.installed(recorder):
            self.assertTrue(tracer.leftover_wrappers())
            explorer.explore(scaling.scale_to_standard(socs.soc_by_number(1)))
        names = {span[0] for span in recorder.spans}
        self.assertIn("core.explore", names)
        self.assertIn("core.evaluate_partitioned", names)
        self.assertEqual(tracer.leftover_wrappers(), [])
        for where, original in originals.items():
            self.assertIs(tracer._resolve(where)[2], original, where)

    def test_self_time_excludes_children(self):
        spans = [["outer", "a", 0.0, 10.0, -1, None],
                 ["inner", "b", 1.0, 4.0, 0, None],
                 ["inner", "b", 5.0, 6.0, 0, None],
                 ["outer", "a", 2.0, 3.0, 1, None]]
        prof = tracer.profile(spans)
        self.assertEqual(prof.calls, {"outer": 2, "inner": 2})
        self.assertAlmostEqual(prof.inclusive_s["outer"], 10.0)
        self.assertAlmostEqual(prof.layer_self_s["a"], 7.0)
        self.assertAlmostEqual(prof.layer_self_s["b"], 3.0)
        self.assertAlmostEqual(prof.covered_s, 10.0)


class ImportTime(unittest.TestCase):
    def test_numpy_and_scipy_are_not_counted_in_repro(self):
        stderr = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |   encodings",
            "import time:        50 |         50 |       pickle",
            "import time:       200 |        250 |     numpy.core",
            "import time:       300 |        550 |   numpy",
            "import time:       400 |        400 |     scipy.sparse",
            "import time:        10 |        960 |   repro.thermal",
            "import time:        20 |       1080 | repro.core",
            "import time:         5 |          5 | site",
        ])
        owned = bootstrap.attribute(stderr)
        self.assertAlmostEqual(owned["numpy"], 550e-6)
        self.assertAlmostEqual(owned["scipy"], 400e-6)
        self.assertAlmostEqual(owned["repro.thermal"], 10e-6)
        self.assertAlmostEqual(owned["repro.core"], 120e-6)
        self.assertAlmostEqual(owned["other"], 5e-6)


if __name__ == "__main__":
    unittest.main()
