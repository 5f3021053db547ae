"""Startup import hygiene: commands load scipy and networkx only where
they run, and the paper model loads no infrastructure.

``import repro.cli``, ``repro list``, a warm ``evaluate --cache`` and a
small ``fleet`` never touch scipy or networkx; a cold ``evaluate`` loads
scipy when a driver first needs it and still writes golden-identical
CSVs.  The lazily imported kernels return the same bits on the call that
triggers the import as on every later call.  Importing the paper-model
packages loads neither the result cache nor the analyzer.  Each check
runs in a fresh interpreter, since this test process has long since
imported all of them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.cli import main
from repro.link.ber import q_function, required_ebn0
from repro.thermal.grid import ChipThermalGrid

REPO = Path(__file__).resolve().parents[2]
GOLDEN_DIR = REPO / "results"
LAZY = ("scipy", "networkx")

#: The paper model: first-order link, thermal, decoder and DNN-cost
#: models, which must stand alone without the infrastructure packages.
MODEL_PACKAGES = ("core", "link", "thermal", "decoders", "dnn", "accel",
                  "ni", "signals", "compress", "simulate", "wearable")
INFRASTRUCTURE = ("repro.cache", "repro.analysis")

#: Runs the CLI with the given arguments, then reports the exit code and
#: every loaded module of a LAZY package as its last stdout line.
_CLI_PROBE = """
import json, sys
from repro.cli import main
code = main(sys.argv[1:])
lazy = {lazy!r}
print(json.dumps({{"code": code, "loaded": sorted(
    name for name in sys.modules if name.partition(".")[0] in lazy)}}))
"""

#: First and repeated :func:`kernel_bits` in a fresh interpreter, plus
#: whether scipy was absent before the first call and whether the hot
#: name ended up bound to scipy's own ufunc.
_PARITY_PROBE = """
import json, sys
from repro.link import ber
from tests.integration.test_startup_imports import kernel_bits
cold = "scipy" not in sys.modules
first = kernel_bits()
import scipy.special
print(json.dumps({"cold": cold, "first": first, "later": kernel_bits(),
                  "bound": ber._erfc is scipy.special.erfc}))
"""


def kernel_bits() -> dict:
    """Exact bit patterns of each lazily importing kernel's output."""
    grid = ChipThermalGrid(nx=8, ny=8)
    return {
        "q": [float(q_function(x)).hex() for x in (0.5, 3.0, 7.25)],
        "ebn0": [float(required_ebn0(1e-6, b)).hex() for b in (1, 2, 4, 8)]
        + [float(required_ebn0(1e-6, scheme=scheme)).hex()
           for scheme in ("bpsk", "ook")],
        "solve": grid.solve(grid.hotspot_map(0.01)).tobytes().hex(),
    }


def _python(code: str, *args: str) -> dict:
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join((str(REPO / "src"), str(REPO))))
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=300,
                          env=env, cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cli(*args: str) -> dict:
    return _python(_CLI_PROBE.format(lazy=LAZY), *args)


def _golden_mismatches(output_dir: Path) -> list[str]:
    return [path.name for path in sorted(output_dir.glob("*.csv"))
            if path.read_bytes() != (GOLDEN_DIR / path.name).read_bytes()]


def test_import_cli_loads_no_lazy_package():
    probe = ("import json, sys\nimport repro.cli\n"
             f"print(json.dumps(sorted(name for name in sys.modules "
             f"if name.partition('.')[0] in {LAZY!r})))")
    assert _python(probe) == []


def test_paper_model_loads_no_cache_or_analyzer():
    probe = ("import importlib, json, sys\n"
             f"for name in {MODEL_PACKAGES!r}:\n"
             "    importlib.import_module('repro.' + name)\n"
             "print(json.dumps(sorted(name for name in sys.modules "
             f"if name.startswith({INFRASTRUCTURE!r}))))")
    assert _python(probe) == []


def test_list_loads_no_lazy_package():
    assert _cli("list") == {"code": 0, "loaded": []}


def test_small_fleet_loads_no_lazy_package(tmp_path):
    assert _cli("fleet", "--jobs", "1", "--sessions", "50", "--seed", "7",
                "--quiet", "--output-dir", str(tmp_path)) == {
        "code": 0, "loaded": []}


def test_warm_cached_evaluate_loads_no_lazy_package(tmp_path, capsys):
    warm = ("evaluate", "--seed", "7", "--quiet", "--cache",
            "--output-dir", str(tmp_path))
    assert main(list(warm)) == 0  # prime the cache
    capsys.readouterr()
    assert _cli(*warm) == {"code": 0, "loaded": []}
    assert _golden_mismatches(tmp_path) == []


def test_cold_evaluate_still_matches_goldens(tmp_path):
    report = _cli("evaluate", "--seed", "7", "--quiet",
                  "--output-dir", str(tmp_path))
    assert report["code"] == 0
    assert len(list(tmp_path.glob("*.csv"))) == 10
    assert _golden_mismatches(tmp_path) == []


def test_lazy_kernels_bit_identical_on_first_and_later_calls():
    report = _python(_PARITY_PROBE)
    assert report["cold"], "scipy was imported before the first call"
    assert report["bound"], "q_function's erfc was not bound once"
    assert report["first"] == report["later"]
    # ...and equal to this process, where scipy was loaded long ago.
    assert report["first"] == kernel_bits()
