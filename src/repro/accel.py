"""Vectorized-dispatch gate: one switch between numpy and pure-Python twins.

numpy is a declared dependency (``pyproject.toml``: ``numpy>=2.0``) and
the sketch, embedding, snapshot and candidate-engine modules import it
unconditionally -- the library does *not* run on the stdlib alone.  What
this module gates is *dispatch*: the vectorized hot paths that keep a
pure-Python twin (binary segment decode, posting probes, the FD bitmask
kernels) import numpy through here.  ``np`` is the numpy module or
``None``; callers branch on :data:`HAVE_NUMPY` (or on ``np is None``)
exactly once, at dispatch level -- never inside inner loops.

Tests and benchmarks may call :func:`set_numpy_enabled` to force the
pure-Python paths in-process (e.g. to pin vectorized == pure equivalence
or to measure both sides); the flag only gates *dispatch*, the numpy
module object stays importable either way.
"""

from __future__ import annotations

try:  # pragma: no cover - exercised implicitly by every vectorized path
    import numpy as _numpy
except ImportError:  # pragma: no cover - the stdlib-only environment
    _numpy = None

__all__ = ["np", "HAVE_NUMPY", "numpy_enabled", "set_numpy_enabled"]

#: The numpy module, or ``None`` when unavailable (or force-disabled).
np = _numpy

#: Whether numpy was importable at all (independent of the enable flag).
HAVE_NUMPY = _numpy is not None


def numpy_enabled() -> bool:
    """True when vectorized paths should dispatch to numpy."""
    return np is not None


def set_numpy_enabled(enabled: bool) -> bool:
    """Force vectorized dispatch on/off in-process; returns the previous
    state.  Enabling is a no-op when numpy is not installed."""
    global np
    previous = np is not None
    np = _numpy if enabled else None
    return previous
