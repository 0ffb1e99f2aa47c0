"""Test-only fault plane: named injection points in production code.

Production call sites declare where a fault *could* happen by firing a
registered point name::

    from ..faults import inject
    inject.fire("store.write_segment", table=name)

Nothing is armed by default and ``fire`` short-circuits on a single
module-level flag, so the shipped cost is one attribute load and one
truthiness check per call site.  Tests and the chaos harness arm faults:

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

``FAULT_POINTS`` is the registry of every legal point, mapping each name
to the source file expected to host its call site (and, for points that
cannot use a literal ``fire`` call, the token that marks the site).
``tools/check_fault_sites.py`` lints the registry against the tree so a
refactor cannot silently strand a point with no caller.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = [
    "FAULT_POINTS",
    "FaultInjected",
    "active",
    "crash_after",
    "drop_connection",
    "fail_at",
    "fire",
    "kill_worker",
    "record",
    "reset",
    "take_worker_kill",
]

# point name -> (file under src/repro hosting the call site, marker token).
# A ``None`` token means the default marker ``inject.fire("<name>"`` --
# the two exceptions are the worker-kill pair, which crosses a process
# boundary: the driver consumes the kill at submit time and the worker
# honors a poison payload flag instead of calling back into this module.
# A worker process inherits what is armed here through the fork; a fault
# raised in its fit (``shard.worker.fit``, between fit and persist, or any
# store write point under it) ends in ``os._exit``: a real death.
FAULT_POINTS: dict[str, tuple[str, str | None]] = {
    "store.write_journal": ("store/journal.py", None),
    "store.clear_journal": ("store/journal.py", None),
    "store.write_segment": ("store/lakestore.py", None),
    "store.write_stats": ("store/lakestore.py", None),
    "store.write_index": ("store/lakestore.py", None),
    "store.write_postings": ("store/lakestore.py", None),
    "store.write_manifest": ("store/lakestore.py", None),
    "store.write_version": ("store/lakestore.py", None),
    "store.unlink_stale": ("store/lakestore.py", None),
    "shard.rebalance.stage": ("shard/store.py", None),
    "shard.rebalance.backup": ("shard/store.py", None),
    "shard.rebalance.move": ("shard/store.py", None),
    "shard.rebalance.commit": ("shard/store.py", None),
    "shard.scatter.kill": ("shard/index.py", "inject.take_worker_kill("),
    "shard.worker.exit": ("shard/worker.py", "_fault_kill"),
    "shard.worker.fit": ("shard/worker.py", None),
    "client.connect": ("service/protocol.py", None),
    "server.handle": ("service/protocol.py", None),
}


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


def take_worker_kill(shard: int) -> bool:
    """Consume one armed kill for ``shard`` (called by the scatter
    driver at submit time).  Fault point ``shard.scatter.kill``."""
    if not _enabled:
        return False
    with _lock:
        if _counts is not None:
            _counts["shard.scatter.kill"] = _counts.get("shard.scatter.kill", 0) + 1
        pending = _worker_kills.get(shard, 0)
        if not pending:
            return False
        if pending == 1:
            del _worker_kills[shard]
        else:
            _worker_kills[shard] = pending - 1
        _recompute_enabled()
        return True


def fire(point: str, **context: Any) -> None:
    """Hit a fault point.  No-op unless something is armed; raises the
    armed error when this fire matches an armed fault's trigger."""
    if not _enabled:
        return
    to_raise: BaseException | None = None
    with _lock:
        _check_point(point)
        if _counts is not None:
            _counts[point] = _counts.get(point, 0) + 1
        armed = _faults.get(point)
        if armed:
            for fault in armed:
                error = fault.step()
                if error is not None and to_raise is None:
                    to_raise = error
            if all(f.spent for f in armed):
                del _faults[point]
                _recompute_enabled()
    if to_raise is not None:
        raise to_raise


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
