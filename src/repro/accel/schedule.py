"""MAC-unit scheduling: Eq. 11-12 (non-pipelined) and Eq. 14-15 (pipelined).

Given the per-layer (MACseq_i, #MACop_i) profile of a DNN and the real-time
deadline t = 1/f set by the NI sampling rate (Section 5.3, Optimization),
these solvers find the minimum number of physical MAC units (``#MAChw``)
that still meets the deadline:

* **Non-pipelined** (Eq. 11): one shared pool of ``#MAChw`` units executes
  the layers in sequence;

      t_i = MACseq_i * tMAC * ceil(#MACop_i / #MAChw),   sum_i t_i <= t

  subject to ``0 < #MAChw <= max_i #MACop_i`` (Eq. 12).

* **Pipelined** (Eq. 14): each layer i owns ``#MAChw_i`` units and layers
  overlap across inferences, so only the slowest stage must fit in t:

      max_i t_i <= t,   #MAChw = sum_i #MAChw_i   (Eq. 15)

The resulting Eq. 13 power lower bound is ``P_comp = #MAChw * PMAC``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.accel.tech import TechnologyNode
from repro.dnn.macs import LayerMacs


@dataclass(frozen=True, slots=True)
class Schedule:
    """A feasible accelerator schedule.

    Attributes:
        mac_units: total physical MAC units (#MAChw).
        per_layer_units: unit allocation per layer (equal-valued entries
            referencing the shared pool in the non-pipelined case).
        runtime_s: completion time for one inference (non-pipelined) or the
            slowest stage's time (pipelined initiation interval).
        pipelined: scheduling mode.
        deadline_s: the real-time constraint the schedule satisfies.
    """

    mac_units: int
    per_layer_units: tuple[int, ...]
    runtime_s: float
    pipelined: bool
    deadline_s: float

    def power_w(self, tech: TechnologyNode) -> float:
        """Eq. 13 lower bound: P_comp = #MAChw * PMAC."""
        return self.mac_units * tech.p_mac_w


def _total_time(layers: list[tuple[float, int]], units: int) -> float:
    """Eq. 11 runtime with ``units`` MAC units, summed in layer order over
    ``(MACseq_i * tMAC, #MACop_i)`` pairs; ``-(-a // b)`` is the integer
    ``ceil(a / b)``."""
    total = 0
    for seq_time, ops in layers:
        total += seq_time * -(-ops // units)
    return total


def schedule_non_pipelined(profiles: list[LayerMacs],
                           deadline_s: float,
                           tech: TechnologyNode) -> Schedule | None:
    """Minimal shared-pool schedule (Eq. 11-12), or None when infeasible.

    Feasibility is monotone in the unit count, so the minimum is found by
    bisection over [1, max_i #MACop_i].
    """
    _validate(profiles, deadline_s)
    layers = [(p.mac_seq * tech.t_mac_s, p.mac_ops) for p in profiles]
    max_units = max(ops for _, ops in layers)
    if _total_time(layers, max_units) > deadline_s:
        return None
    lo, hi = 1, max_units
    while lo < hi:
        mid = (lo + hi) // 2
        if _total_time(layers, mid) <= deadline_s:
            hi = mid
        else:
            lo = mid + 1
    runtime = _total_time(layers, lo)
    return Schedule(mac_units=lo,
                    per_layer_units=tuple([lo] * len(profiles)),
                    runtime_s=runtime, pipelined=False,
                    deadline_s=deadline_s)


def schedule_pipelined(profiles: list[LayerMacs],
                       deadline_s: float,
                       tech: TechnologyNode) -> Schedule | None:
    """Minimal per-layer allocation (Eq. 14-15), or None when infeasible.

    A layer is infeasible even with ``#MAChw_i = #MACop_i`` when a single
    MACop sequence alone exceeds the deadline (MACseq_i * tMAC > t) — the
    intra-MACop serial dependency cannot be parallelized.
    """
    _validate(profiles, deadline_s)
    allocation = []
    worst = 0.0
    for profile in profiles:
        seq_time = profile.mac_seq * tech.t_mac_s
        rounds_budget = math.floor(deadline_s / seq_time)
        if rounds_budget < 1:
            return None
        units = -(-profile.mac_ops // rounds_budget)
        allocation.append(units)
        layer_time = seq_time * -(-profile.mac_ops // units)
        if layer_time > worst:
            worst = layer_time
    return Schedule(mac_units=sum(allocation),
                    per_layer_units=tuple(allocation),
                    runtime_s=worst, pipelined=True,
                    deadline_s=deadline_s)


def best_schedule(profiles: list[LayerMacs],
                  deadline_s: float,
                  tech: TechnologyNode) -> Schedule | None:
    """The lower-power of the two scheduling modes (paper: "we report the
    best result between a pipelined and a non-pipelined design")."""
    candidates = [s for s in (schedule_non_pipelined(profiles, deadline_s,
                                                     tech),
                              schedule_pipelined(profiles, deadline_s, tech))
                  if s is not None]
    if not candidates:
        return None
    return min(candidates, key=lambda s: s.mac_units)


@lru_cache(maxsize=4096)
def cached_best_schedule(profiles: tuple[LayerMacs, ...],
                         deadline_s: float,
                         tech: TechnologyNode) -> Schedule | None:
    """Memoized :func:`best_schedule` over hashable profile tuples.

    The strategy sweeps evaluate the same (workload shape, deadline,
    technology) triple once per SoC per grid point; profiles, deadlines
    and technology nodes are all hashable value types.  The memo is a
    4096-entry LRU, so a triple searched again after its entry was
    evicted is searched again: a design-query stream that visits more
    distinct triples than that both hits and misses.
    """
    return best_schedule(list(profiles), deadline_s, tech)


def mac_units_lower_bound(profiles: tuple[LayerMacs, ...] |
                          list[LayerMacs], deadline_s: float,
                          tech: TechnologyNode) -> int:
    """A floor under ``#MAChw`` of every schedule meeting the deadline,
    in either mode, found without a search.

    Every layer needs ``MACseq_i * #MACop_i * tMAC`` unit-seconds of
    work.  A shared pool of ``u`` units finishes in at least ``W / u``
    (``W`` the total work), and a pipelined layer i finishes in at least
    its own work over ``#MAChw_i``, so meeting ``t`` needs ``W / t``
    units either way.  The ``1e-9`` margin keeps the floor below the
    schedulers' float sums, which round far less than that.
    """
    work = sum(p.mac_seq * p.mac_ops for p in profiles) * tech.t_mac_s
    return int(work / deadline_s * (1.0 - 1e-9))


def compute_power_lower_bound(profiles: list[LayerMacs],
                              deadline_s: float,
                              tech: TechnologyNode) -> float | None:
    """Eq. 13: minimal P_comp [W] over both modes, or None when infeasible."""
    schedule = best_schedule(profiles, deadline_s, tech)
    if schedule is None:
        return None
    return schedule.power_w(tech)


def _validate(profiles: list[LayerMacs], deadline_s: float) -> None:
    if not profiles:
        raise ValueError("need at least one compute layer")
    if deadline_s <= 0:
        raise ValueError("deadline must be positive")
    for profile in profiles:
        if not profile.is_compute:
            raise ValueError("schedules require compute layers "
                             "(non-zero MAC profiles)")
