"""Spans recorded from outside the program, around its public functions.

:func:`installed` replaces each :data:`TARGETS` function with a wrapper
in every ``repro`` namespace that holds it (the defining module and every
module that imported it by name), so callers reach the wrapper whichever
name they use.  Wrappers append spans to an in-memory :class:`Recorder`;
leaving the context puts every original back.  Nothing under ``src/``
changes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: Marks a wrapper so tests can prove none survives :func:`installed`.
WRAPPER_FLAG = "_perfbench_target"


@dataclass(frozen=True)
class Target:
    """One wrapped function: span name, owning layer, and location
    (``module:function`` or ``module:Class.method``)."""

    name: str
    layer: str
    where: str
    #: Optional ``(args, kwargs) -> str`` recorded as the span's tag.
    tag: Callable[[tuple, dict], str | None] | None = None


def _transport_mode(args: tuple, kwargs: dict) -> str | None:
    header = args[0] if args else kwargs.get("header")
    if isinstance(header, dict):
        return header.get("stats", {}).get("mode")
    return None


TARGETS: tuple[Target, ...] = (
    Target("cli.main", "cli", "repro.cli:main"),
    Target("experiments.run_module", "experiments",
           "repro.experiments:run_module"),
    Target("experiments.fig7", "experiments", "repro.experiments.fig7:run"),
    Target("experiments.fig10", "experiments",
           "repro.experiments.fig10:run"),
    Target("experiments.fig11", "experiments",
           "repro.experiments.fig11:run"),
    Target("experiments.fig12", "experiments",
           "repro.experiments.fig12:run"),
    Target("experiments.save_csv", "experiments",
           "repro.experiments.base:ExperimentResult.save_csv"),
    Target("cache.run_and_save_cached", "cache",
           "repro.cache.runner:run_and_save_cached"),
    Target("cache.probe_driver", "cache", "repro.cache.runner:probe_driver"),
    Target("cache.store.get", "cache", "repro.cache.store:CacheStore.get"),
    Target("core.explore", "core", "repro.core.explorer:explore"),
    Target("core.evaluate_ladder", "core",
           "repro.core.optimizations:evaluate_ladder"),
    Target("core.scale_to_standard", "core",
           "repro.core.scaling:scale_to_standard"),
    Target("core.evaluate_partitioned", "core",
           "repro.core.partitioning:evaluate_partitioned"),
    Target("core.max_feasible_channels", "core",
           "repro.core.comp_centric:max_feasible_channels"),
    Target("link.required_ebn0", "link", "repro.link.ber:required_ebn0"),
    Target("thermal.assess", "thermal", "repro.thermal.budget:assess"),
    Target("accel.best_schedule", "accel",
           "repro.accel.schedule:best_schedule"),
    Target("dnn.build_workload", "dnn",
           "repro.core.comp_centric:build_workload"),
    Target("dnn.forward", "dnn", "repro.dnn.network:Network.forward"),
    Target("fleet.run_cohort", "fleet", "repro.fleet.engine:run_cohort"),
    Target("fleet.summarize_cohort", "fleet",
           "repro.fleet.result:summarize_cohort"),
    Target("decoders.kalman.fit", "decoders",
           "repro.decoders.kalman:KalmanFilterDecoder.fit"),
    Target("decoders.wiener.fit", "decoders",
           "repro.decoders.wiener:WienerFilterDecoder.fit"),
    Target("decoders.dnn.fit", "decoders",
           "repro.decoders.dnn_decoder:DnnDecoder.fit"),
    Target("perf.get_pool", "perf", "repro.perf.pool:get_pool"),
    Target("perf.pool.wait", "perf", "repro.perf.pool:WarmPool.wait"),
    Target("perf.shm.unpack", "perf", "repro.perf.shm:unpack_payload",
           tag=_transport_mode),
    Target("obs.write_jsonl", "obs",
           "repro.obs.events:EventLog.write_jsonl"),
    Target("obs.adopt", "obs", "repro.obs.events:EventLog.adopt"),
)

#: The program's memo caches, read through ``cache_info()``.
MEMOS = {
    "accel.schedule_memo": "repro.accel.schedule:cached_best_schedule",
    "core.workload_profile_memo": "repro.core.comp_centric:_workload_profile",
    "core.split_candidates_memo":
        "repro.core.partitioning:_split_candidates",
}


class Recorder:
    """In-memory span list: ``[name, layer, start, end, parent, tag]``
    with ``parent`` the index of the enclosing span (-1 at the root)."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._local = threading.local()

    def add(self, name: str, layer: str, start: float, end: float) -> None:
        """Record a span measured by the caller (no parent)."""
        self.spans.append([name, layer, start, end, -1, None])

    def wrap(self, target: Target, fn: Callable) -> Callable:
        spans = self.spans
        local = self._local
        clock = time.perf_counter
        name, layer, tag = target.name, target.layer, target.tag

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1,
                    tag(args, kwargs) if tag is not None else None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        setattr(wrapper, WRAPPER_FLAG, target.name)
        return wrapper


def _resolve(where: str) -> tuple[Any, str, Any]:
    """``module:attr`` or ``module:Class.attr`` -> (owner, attr, value)."""
    module_name, _, path = where.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    value = owner.__dict__[attr] if parents else getattr(owner, attr)
    return owner, attr, value


def _repro_modules() -> list[Any]:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


@contextmanager
def installed(recorder: Recorder) -> Iterator[None]:
    """Wrap every target for the duration of the block."""
    resolved = [(target, *_resolve(target.where)) for target in TARGETS]
    patched: list[tuple[Any, str, Any]] = []
    try:
        modules = _repro_modules()
        for target, owner, attr, original in resolved:
            wrapper = recorder.wrap(target, original)
            if isinstance(owner, type):
                patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patched.append((module, key, original))
                        setattr(module, key, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def leftover_wrappers() -> list[str]:
    """Names under which a wrapper is still reachable (should be none)."""
    found = []
    for module in _repro_modules():
        for key, value in list(vars(module).items()):
            if hasattr(value, WRAPPER_FLAG):
                found.append(f"{module.__name__}.{key}")
            elif isinstance(value, type):
                for attr, member in list(vars(value).items()):
                    if hasattr(member, WRAPPER_FLAG):
                        found.append(f"{module.__name__}.{key}.{attr}")
    return found


def memo_info() -> dict[str, list[int]]:
    """``[hits, misses]`` of each memo cache since its last clear."""
    info = {}
    for name, where in MEMOS.items():
        _, _, fn = _resolve(where)
        stats = fn.cache_info()
        info[name] = [stats.hits, stats.misses]
    return info


def clear_memos() -> None:
    for where in MEMOS.values():
        _resolve(where)[2].cache_clear()


@dataclass
class Profile:
    """Per-name and per-layer aggregates of one span list."""

    calls: dict[str, int]
    inclusive_s: dict[str, float]
    self_s: dict[str, float]
    layer_self_s: dict[str, float]
    tags: dict[tuple[str, str], int]

    @property
    def covered_s(self) -> float:
        """Wall time inside at least one span."""
        return sum(self.layer_self_s.values())


def profile(spans: list[list[Any]]) -> Profile:
    """Self time of a span is its duration minus the time its child
    spans cover; a span nested in one of the same name adds no
    inclusive time (recursion is not double counted)."""
    child_s = [0.0] * len(spans)
    for name, _, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    self_s: dict[str, float] = {}
    layers: dict[str, float] = {}
    tags: dict[tuple[str, str], int] = {}
    for index, (name, layer, start, end, parent, tag) in enumerate(spans):
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        own = duration - child_s[index]
        self_s[name] = self_s.get(name, 0.0) + own
        layers[layer] = layers.get(layer, 0.0) + own
        if tag is not None:
            tags[(name, tag)] = tags.get((name, tag), 0) + 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][4]
        if ancestor < 0:
            inclusive[name] = inclusive.get(name, 0.0) + duration
    return Profile(calls, inclusive, self_s, layers, tags)


def merge(profiles: list[Profile]) -> Profile:
    """Sum of several profiles (one per process of an iteration)."""
    merged = Profile({}, {}, {}, {}, {})
    for prof in profiles:
        for mine, theirs in ((merged.calls, prof.calls),
                             (merged.inclusive_s, prof.inclusive_s),
                             (merged.self_s, prof.self_s),
                             (merged.layer_self_s, prof.layer_self_s),
                             (merged.tags, prof.tags)):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value
    return merged
