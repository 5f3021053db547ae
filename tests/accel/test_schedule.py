"""Tests for the Eq. 11-15 MAC schedulers."""

import math

import numpy as np
import pytest

from repro.accel.schedule import (
    best_schedule,
    compute_power_lower_bound,
    mac_units_lower_bound,
    schedule_non_pipelined,
    schedule_pipelined,
)
from repro.accel.tech import TECH_12NM, TECH_45NM
from repro.dnn.macs import LayerMacs


def profiles_simple():
    return [LayerMacs(mac_seq=100, mac_ops=50),
            LayerMacs(mac_seq=50, mac_ops=20)]


class TestNonPipelined:
    def test_single_unit_runtime(self):
        # With 1 unit: 100*50 + 50*20 = 6000 steps * 2 ns = 12 us.
        schedule = schedule_non_pipelined(profiles_simple(), 1.0, TECH_45NM)
        assert schedule.mac_units == 1
        assert schedule.runtime_s == pytest.approx(12e-6)

    def test_minimality(self):
        # Deadline exactly at the 2-unit runtime: 100*25 + 50*10 = 3000
        # steps * 2 ns = 6 us.
        schedule = schedule_non_pipelined(profiles_simple(), 6e-6,
                                          TECH_45NM)
        assert schedule.mac_units == 2
        assert schedule.runtime_s <= 6e-6

    def test_eq12_unit_cap(self):
        # Even max units cannot beat MACseq-serial time.
        profiles = [LayerMacs(mac_seq=1000, mac_ops=4)]
        # With 4 units: 1000 * 2 ns = 2 us; deadline below that -> None.
        assert schedule_non_pipelined(profiles, 1e-6, TECH_45NM) is None

    def test_units_never_exceed_max_ops(self):
        profiles = [LayerMacs(mac_seq=10, mac_ops=7)]
        schedule = schedule_non_pipelined(profiles, 1.0, TECH_45NM)
        assert schedule.mac_units <= 7

    def test_deadline_respected(self):
        for deadline in (1e-5, 5e-5, 1e-4):
            schedule = schedule_non_pipelined(profiles_simple(), deadline,
                                              TECH_45NM)
            if schedule is not None:
                assert schedule.runtime_s <= deadline

    def test_tighter_deadline_needs_more_units(self):
        loose = schedule_non_pipelined(profiles_simple(), 1e-4, TECH_45NM)
        tight = schedule_non_pipelined(profiles_simple(), 7e-6, TECH_45NM)
        assert tight.mac_units > loose.mac_units

    def test_rejects_empty_profiles(self):
        with pytest.raises(ValueError):
            schedule_non_pipelined([], 1.0, TECH_45NM)

    def test_rejects_non_positive_deadline(self):
        with pytest.raises(ValueError):
            schedule_non_pipelined(profiles_simple(), 0.0, TECH_45NM)

    def test_rejects_non_compute_layers(self):
        with pytest.raises(ValueError):
            schedule_non_pipelined([LayerMacs(0, 0)], 1.0, TECH_45NM)


class TestPipelined:
    def test_per_layer_allocation(self):
        # Deadline 10 us: layer 1 rounds budget = 10us/200ns = 50 ->
        # units = ceil(50/50) = 1; layer 2: budget 100 -> units 1.
        schedule = schedule_pipelined(profiles_simple(), 10e-6, TECH_45NM)
        assert schedule.per_layer_units == (1, 1)
        assert schedule.mac_units == 2

    def test_initiation_interval_below_deadline(self):
        schedule = schedule_pipelined(profiles_simple(), 1e-5, TECH_45NM)
        assert schedule.runtime_s <= 1e-5

    def test_infeasible_when_sequence_exceeds_deadline(self):
        profiles = [LayerMacs(mac_seq=10_000, mac_ops=1)]
        # 10k steps * 2 ns = 20 us > 10 us deadline, unparallelizable.
        assert schedule_pipelined(profiles, 10e-6, TECH_45NM) is None

    def test_eq15_per_layer_cap(self):
        profiles = [LayerMacs(mac_seq=100, mac_ops=10)]
        schedule = schedule_pipelined(profiles, 1e-3, TECH_45NM)
        assert all(u <= p.mac_ops
                   for u, p in zip(schedule.per_layer_units, profiles))

    def test_pipelining_can_beat_shared_pool(self):
        # Three balanced layers at a deadline just above one layer's
        # single-unit time: the pool must race through all three in
        # sequence while the pipeline overlaps them with 1 unit each.
        profiles = [LayerMacs(mac_seq=1000, mac_ops=64)] * 3
        deadline = 128.5e-6  # one layer on one unit takes 128 us
        pooled = schedule_non_pipelined(profiles, deadline, TECH_45NM)
        piped = schedule_pipelined(profiles, deadline, TECH_45NM)
        assert piped.mac_units == 3
        assert piped.mac_units < pooled.mac_units


class TestBestSchedule:
    def test_picks_lower_power(self):
        profiles = profiles_simple()
        deadline = 1e-5
        best = best_schedule(profiles, deadline, TECH_45NM)
        candidates = [schedule_non_pipelined(profiles, deadline, TECH_45NM),
                      schedule_pipelined(profiles, deadline, TECH_45NM)]
        units = [c.mac_units for c in candidates if c is not None]
        assert best.mac_units == min(units)

    def test_returns_none_when_both_infeasible(self):
        profiles = [LayerMacs(mac_seq=10_000_000, mac_ops=1)]
        assert best_schedule(profiles, 1e-6, TECH_45NM) is None

    def test_power_lower_bound_eq13(self):
        profiles = profiles_simple()
        bound = compute_power_lower_bound(profiles, 1e-5, TECH_45NM)
        best = best_schedule(profiles, 1e-5, TECH_45NM)
        assert bound == pytest.approx(best.mac_units * TECH_45NM.p_mac_w)

    def test_power_lower_bound_infeasible_is_none(self):
        profiles = [LayerMacs(mac_seq=10_000_000, mac_ops=1)]
        assert compute_power_lower_bound(profiles, 1e-6, TECH_45NM) is None

    def test_power_scales_with_throughput_demand(self):
        profiles = [LayerMacs(mac_seq=256, mac_ops=4096)]
        slow = compute_power_lower_bound(profiles, 1e-2, TECH_45NM)
        fast = compute_power_lower_bound(profiles, 1e-4, TECH_45NM)
        assert fast > slow

    def test_total_mac_conservation(self):
        # Whatever the allocation, executed MAC steps equal the profile sum.
        profiles = profiles_simple()
        total = sum(p.total_macs for p in profiles)
        assert total == 100 * 50 + 50 * 20

    def test_runtime_matches_eq11_formula(self):
        profiles = [LayerMacs(mac_seq=7, mac_ops=13)]
        schedule = schedule_non_pipelined(profiles, 1.0, TECH_45NM)
        expected = 7 * TECH_45NM.t_mac_s * math.ceil(
            13 / schedule.mac_units)
        assert schedule.runtime_s == pytest.approx(expected)


def _random_case(rng):
    """(profiles, tech, deadline): 1-12 layers, deadlines 1 us - 10 ms."""
    profiles = [LayerMacs(mac_seq=int(rng.integers(1, 40_001)),
                          mac_ops=int(rng.integers(1, 70_001)))
                for _ in range(int(rng.integers(1, 13)))]
    tech = (TECH_45NM, TECH_12NM)[int(rng.integers(2))]
    return profiles, tech, float(10 ** rng.uniform(-6, -2))


def _float_time(profiles, units, tech):
    """Eq. 11 runtime as first written: a float ceil per layer."""
    return sum(p.mac_seq * tech.t_mac_s * math.ceil(p.mac_ops / units)
               for p in profiles)


def test_integer_scheduler_matches_float_formula():
    """The integer-ceiling schedulers reproduce the float formulas bit
    for bit on seeded random profiles, feasible or not."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        profiles, tech, deadline = _random_case(rng)
        max_units = max(p.mac_ops for p in profiles)
        expected = None
        if _float_time(profiles, max_units, tech) <= deadline:
            lo, hi = 1, max_units
            while lo < hi:
                mid = (lo + hi) // 2
                if _float_time(profiles, mid, tech) <= deadline:
                    hi = mid
                else:
                    lo = mid + 1
            expected = (lo, _float_time(profiles, lo, tech).hex())
        schedule = schedule_non_pipelined(profiles, deadline, tech)
        got = (None if schedule is None
               else (schedule.mac_units, schedule.runtime_s.hex()))
        assert got == expected

        piped = schedule_pipelined(profiles, deadline, tech)
        allocation, worst = [], 0.0
        for p in profiles:
            budget = math.floor(deadline / (p.mac_seq * tech.t_mac_s))
            if budget < 1:
                allocation = None
                break
            allocation.append(math.ceil(p.mac_ops / budget))
            worst = max(worst, p.mac_seq * tech.t_mac_s
                        * math.ceil(p.mac_ops / allocation[-1]))
        if allocation is None:
            assert piped is None
        else:
            assert piped.per_layer_units == tuple(allocation)
            assert piped.runtime_s.hex() == worst.hex()


def test_mac_units_lower_bound_never_exceeds_a_schedule():
    rng = np.random.default_rng(5)
    for _ in range(200):
        profiles, tech, deadline = _random_case(rng)
        bound = mac_units_lower_bound(profiles, deadline, tech)
        for schedule in (schedule_non_pipelined(profiles, deadline, tech),
                         schedule_pipelined(profiles, deadline, tech)):
            if schedule is not None:
                assert bound <= schedule.mac_units


def test_mac_units_lower_bound_stays_below_an_exact_fit():
    # 1000 MACops of depth 100 at 2 ns in 20 us need exactly 10 units;
    # the rounding margin keeps the floor one below.
    profiles = [LayerMacs(mac_seq=100, mac_ops=1000)]
    assert mac_units_lower_bound(profiles, 20e-6, TECH_45NM) == 9
    assert schedule_non_pipelined(profiles, 20e-6, TECH_45NM).mac_units == 10
