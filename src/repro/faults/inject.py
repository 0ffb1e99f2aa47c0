"""Test-only fault plane: named injection points in production code.

A production module declares each point where a fault *could* happen as
a module constant, and fires through it::

    from ..faults import inject

    _WRITE_SEGMENT = inject.point("store.write_segment")
    ...
    _WRITE_SEGMENT.fire()

:func:`point` runs at import time and refuses a name that is not in
:data:`FAULT_POINTS` or that another module already declared, so a
fired name is always a registered one and every registered name has
exactly one declaring module (``tests/unit/test_faults.py`` imports all
of ``repro`` and checks the declared set equals the registry).

Nothing is armed by default and ``fire`` short-circuits on a single
module-level flag, so the shipped cost is one attribute load and one
truthiness check per call site.  Tests and the chaos harness arm faults
by name:

* :func:`crash_after` -- raise :class:`FaultInjected` at the *nth* fire
  of a point (simulates a crash immediately after that write completes);
* :func:`fail_at` -- raise an arbitrary error at the nth fire;
* :func:`kill_worker` -- the next scatter to shard *i* ships a poison
  payload whose worker calls ``os._exit`` (a real process death, not an
  exception -- the driver sees ``BrokenProcessPool``); a worker started
  to *fit* shard *i* consumes it first and dies before persisting;
* :func:`drop_connection` -- the nth client connect raises
  ``ConnectionError`` before touching the socket;
* :func:`record` -- count every fire, used by the crash-recovery
  property suite to enumerate the write points of an operation before
  crashing at each one in turn.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = [
    "FAULT_POINTS",
    "FaultInjected",
    "FaultPoint",
    "active",
    "crash_after",
    "drop_connection",
    "fail_at",
    "kill_worker",
    "point",
    "record",
    "reset",
]

#: Every legal point name, grouped by the module that declares it.  The
#: worker-kill pair crosses a process boundary: the scatter driver
#: consumes an armed kill at submit time (``shard.scatter.kill``) and
#: ships a poison flag its worker honors (``shard.worker.exit``).  A worker
#: process inherits what is armed here through the fork; a fault raised
#: in its fit (``shard.worker.fit``, between fit and persist, or any store
#: write point under it) ends in ``os._exit``: a real death.
FAULT_POINTS = frozenset({
    "store.write_journal", "store.clear_journal",
    "store.write_segment", "store.write_stats", "store.write_index",
    "store.write_manifest", "store.write_version",
    "store.unlink_stale",
    "shard.rebalance.stage", "shard.rebalance.backup",
    "shard.rebalance.move", "shard.rebalance.commit",
    "shard.scatter.kill",
    "shard.worker.exit", "shard.worker.fit",
    "client.connect", "server.handle",
})


class FaultInjected(RuntimeError):
    """Raised by an armed :func:`crash_after` -- stands in for the
    process dying right after the named write point."""

    def __init__(self, point: str):
        super().__init__(f"injected crash after fault point {point!r}")
        self.point = point


class _Armed:
    """One armed fault: trigger at the nth fire (counted from arming),
    for ``times`` consecutive fires."""

    def __init__(self, nth: int, times: int, factory: Callable[[], BaseException]):
        self.nth = nth
        self.times = times
        self.factory = factory
        self.seen = 0
        self.triggered = 0

    def step(self) -> BaseException | None:
        self.seen += 1
        if self.seen >= self.nth and self.triggered < self.times:
            self.triggered += 1
            return self.factory()
        return None

    @property
    def spent(self) -> bool:
        return self.triggered >= self.times


_lock = threading.Lock()


def _fresh_lock() -> None:
    global _lock
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    # Forked while a thread holds it, a worker would hang on its first fire.
    os.register_at_fork(after_in_child=_fresh_lock)
_enabled = False  # fast-path gate: True iff anything below is armed
_faults: dict[str, list[_Armed]] = {}
_counts: dict[str, int] | None = None
_worker_kills: dict[int, int] = {}


def _recompute_enabled() -> None:
    global _enabled
    _enabled = bool(_faults) or _counts is not None or bool(_worker_kills)


def active() -> bool:
    """True when any fault or recorder is armed."""
    return _enabled


def _check_point(point: str) -> None:
    if point not in FAULT_POINTS:
        raise ValueError(
            f"unknown fault point {point!r}; registered: {sorted(FAULT_POINTS)}"
        )


class FaultPoint:
    """A declared fault point: the handle its call site fires through."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def fire(self) -> None:
        """Hit the point.  No-op unless something is armed; raises the
        armed error when this fire matches an armed fault's trigger."""
        if not _enabled:
            return
        to_raise: BaseException | None = None
        with _lock:
            if _counts is not None:
                _counts[self.name] = _counts.get(self.name, 0) + 1
            armed = _faults.get(self.name)
            if armed:
                for fault in armed:
                    error = fault.step()
                    if error is not None and to_raise is None:
                        to_raise = error
                if all(f.spent for f in armed):
                    del _faults[self.name]
                    _recompute_enabled()
        if to_raise is not None:
            raise to_raise

    def take_worker_kill(self, shard: int) -> bool:
        """Hit the point, then consume one kill armed for ``shard`` -- the
        scatter driver's call at submit time."""
        self.fire()
        if not _enabled:
            return False
        with _lock:
            pending = _worker_kills.pop(shard, 0)
            if pending > 1:
                _worker_kills[shard] = pending - 1
            _recompute_enabled()
        return pending > 0


#: name -> its one declared :class:`FaultPoint`.
_declared: dict[str, FaultPoint] = {}


def point(name: str) -> FaultPoint:
    """Declare fault point *name* -- once, as a constant of the module
    that fires it.  Raises ``ValueError`` (at that module's import) for a
    name not in :data:`FAULT_POINTS` or one already declared."""
    _check_point(name)
    if name in _declared:
        raise ValueError(f"fault point {name!r} is already declared")
    _declared[name] = FaultPoint(name)
    return _declared[name]


def fail_at(
    point: str,
    error: Callable[[], BaseException] | BaseException,
    nth: int = 1,
    times: int = 1,
) -> None:
    """Arm ``point`` to raise ``error`` at its nth fire (then for
    ``times - 1`` further consecutive fires)."""
    _check_point(point)
    if nth < 1 or times < 1:
        raise ValueError("nth and times must be >= 1")
    factory = error if callable(error) else (lambda err=error: err)
    with _lock:
        _faults.setdefault(point, []).append(_Armed(nth, times, factory))
        _recompute_enabled()


def crash_after(point: str, nth: int = 1) -> None:
    """Arm a simulated crash (``FaultInjected``) at the nth fire of
    ``point`` -- i.e. the process dies right after that write."""
    fail_at(point, lambda: FaultInjected(point), nth=nth)


def drop_connection(nth: int = 1, times: int = 1) -> None:
    """Arm the client's nth connection attempt to fail before the socket
    is touched (the retry loop's bread and butter)."""
    fail_at(
        "client.connect",
        lambda: ConnectionError("injected connection drop"),
        nth=nth,
        times=times,
    )


def kill_worker(shard: int, times: int = 1) -> None:
    """Arm the next ``times`` scatter submissions to shard ``shard`` to
    carry a poison payload: the pool worker ``os._exit``s before
    answering, so the driver observes a genuine ``BrokenProcessPool``."""
    if shard < 0 or times < 1:
        raise ValueError("shard must be >= 0 and times >= 1")
    with _lock:
        _worker_kills[shard] = _worker_kills.get(shard, 0) + times
        _recompute_enabled()


@contextmanager
def record() -> Iterator[dict[str, int]]:
    """Count every fire inside the block -- how the crash-recovery
    property suite enumerates an operation's write points."""
    global _counts
    with _lock:
        previous = _counts
        counts: dict[str, int] = {}
        _counts = counts
        _recompute_enabled()
    try:
        yield counts
    finally:
        with _lock:
            _counts = previous
            _recompute_enabled()


def reset() -> None:
    """Disarm everything (tests call this in teardown)."""
    global _counts
    with _lock:
        _faults.clear()
        _worker_kills.clear()
        _counts = None
        _recompute_enabled()
