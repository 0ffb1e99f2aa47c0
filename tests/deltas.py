"""What an operation added to the process-wide metrics registry.

A count is kept once, in :mod:`repro.obs.metrics`; tests read it the way
an operator does, as the difference taken around the operation under
test, so what earlier tests in the same process counted never leaks in.
"""

from __future__ import annotations

from typing import Callable

from repro.obs import metrics

#: What a posting-channel build bumps: a warm engine moves neither.
ENGINE_BUILDS = ("engine.build.tokens", "engine.build.values")


def values(*names: str) -> dict[str, int]:
    """The process-wide counters *names* now (0 for one never bumped)."""
    counters = metrics.global_registry().snapshot()["counters"]
    return {name: counters.get(name, 0) for name in names}


def deltas(*names: str) -> Callable[[], dict[str, int]]:
    """Start counting *names*: the returned function says how far each
    has moved since this call."""
    before = values(*names)
    return lambda: {name: value - before[name] for name, value in values(*names).items()}
