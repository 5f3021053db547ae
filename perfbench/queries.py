"""The design-query stream and the model calls that answer it.

This module imports nothing of the benchmark's own plumbing, so that
``python -m perfbench.queries SEED`` (the ``design-queries`` set-up
probe) times the model's imports plus the stream's first query and
nothing else.
"""

from __future__ import annotations

import functools
import random
import sys

KINDS = ("explore", "ladder", "assess")
SOCS = tuple(range(1, 9))
TARGETS = tuple(range(1024, 16384 + 1, 256))
#: Repeats per kind: a quarter of the distinct queries, so a fifth of
#: the stream.
REPEATS_PER_KIND = len(SOCS) * len(TARGETS) // 4


def make_stream(seed: int) -> list[tuple[str, int, int]]:
    """Every (kind, SoC, target) once, in seeded random order, plus
    seeded repeats each placed after the query it repeats.  Covering
    the whole grid keeps the stream's mix of cheap and costly queries
    the same for every seed."""
    rng = random.Random(seed)
    stream = [(kind, soc, n) for kind in KINDS for soc in SOCS
              for n in TARGETS]
    rng.shuffle(stream)
    for kind in KINDS:
        for _ in range(REPEATS_PER_KIND):
            positions = [i for i, q in enumerate(stream) if q[0] == kind]
            original = rng.choice(positions)
            stream.insert(rng.randint(original + 1, len(stream)),
                          stream[original])
    return stream


@functools.cache
def model():
    from repro.core import explorer, optimizations, scaling, socs
    from repro.thermal import budget
    return explorer, optimizations, scaling, socs, budget


def answer(query: tuple[str, int, int]):
    """Run one query through the model's public functions (looked up on
    their modules at call time, so traced passes see the wrappers)."""
    explorer, optimizations, scaling, socs, budget = model()
    kind, number, channels = query
    record = socs.soc_by_number(number)
    if kind == "explore":
        return explorer.explore(scaling.scale_to_standard(record),
                                target_channels=channels)
    if kind == "ladder":
        return optimizations.evaluate_ladder(
            scaling.scale_to_standard(record), channels)
    soc = scaling.scale_to_standard(record, channels)
    return budget.assess(soc.power_w, soc.area_m2)


if __name__ == "__main__":
    answer(make_stream(int(sys.argv[1]))[0])
