"""Bootstrap layer: interpreter start and imports, from ``-X importtime``.

Every import line's self time goes to its owner: numpy, scipy, one of
the :data:`PACKAGES` of ``repro``, or, for any other module, the owner
of the module that imported it (``other`` at the top level).  numpy and
scipy are therefore never counted inside the ``repro`` package that
pulled them in.
"""

from __future__ import annotations

from perfbench.common import Metric, Tally, WorkDir, median, python_cmd
from perfbench.common import run_proc

PACKAGES = ("core", "link", "thermal", "dnn", "accel", "signals",
            "experiments", "obs", "perf", "cache", "dag", "fleet", "cli")

OWNERS = ("numpy", "scipy", *(f"repro.{pkg}" for pkg in PACKAGES),
          "other")

#: Probes per run; each metric is the median over them.
PROBES = 3


def _own(module: str) -> str | None:
    top = module.split(".", 1)[0]
    if top in ("numpy", "scipy"):
        return top
    parts = module.split(".")
    if top == "repro" and len(parts) > 1 and parts[1] in PACKAGES:
        return f"repro.{parts[1]}"
    return None


def attribute(stderr: str) -> dict[str, float]:
    """Seconds of import self time per owner in ``-X importtime``
    output (post-order: a module's line follows its children's)."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        head, _, label = line.split("|", 2)
        label = label.rstrip()
        depth = (len(label) - len(label.lstrip(" ")) - 1) // 2
        rows.append((depth, label.strip(), int(head.split(":")[1])))
    owned = dict.fromkeys(OWNERS, 0.0)
    stack: list[tuple[int, str]] = []
    for depth, module, self_us in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        owner = _own(module) or (stack[-1][1] if stack else "other")
        stack.append((depth, owner))
        owned[owner] += self_us / 1e6
    return owned


def measure(work: WorkDir, tally: Tally) -> dict[str, Metric]:
    """The ``import.*`` per-layer metrics (medians over probes)."""
    bare = []
    owned: dict[str, list[float]] = {owner: [] for owner in OWNERS}
    totals = []
    for _ in range(PROBES):
        proc = run_proc(python_cmd("-c", "pass"), work)
        if tally.op(proc.ok, "bare interpreter probe"):
            bare.append(proc.wall_s)
        proc = run_proc(python_cmd("-X", "importtime", "-c",
                                   "import repro.cli"), work)
        if not tally.op(proc.ok, "import-time probe"):
            continue
        split = attribute(proc.err)
        for owner, seconds in split.items():
            owned[owner].append(seconds)
        totals.append(sum(split.values()))
    metrics = {"import.interpreter_s": Metric(_med(bare), "s", len(bare))}
    for owner in OWNERS:
        metrics[f"import.{owner}_s"] = Metric(
            _med(owned[owner]), "s", len(owned[owner]))
    metrics["import.total_s"] = Metric(_med(totals), "s", len(totals))
    return metrics


def _med(values: list[float]) -> float:
    return median(values) if values else 0.0
