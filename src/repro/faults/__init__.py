"""repro.faults -- the pipeline-wide fault-tolerance layer.

Two halves:

* :mod:`repro.faults.inject` -- a test-only fault plane.  Production
  code declares named *fault points* on its write and I/O paths
  (``_WRITE_SEGMENT = inject.point("store.write_segment")``) and fires
  through them; tests and the chaos harness arm crashes, worker kills
  and connection drops against those names.  When nothing is armed the
  plane is a single predicate check per call site.
* :mod:`repro.faults.retry` -- the bounded exponential-backoff policy
  used by :class:`~repro.service.protocol.ServiceClient` to absorb
  transient connection failures and overload pushback.

Call sites import the module, never the functions, mirroring the
``repro.obs`` convention::

    from ..faults import inject

    _WRITE_MANIFEST = inject.point("store.write_manifest")
"""

from . import inject
from .inject import FaultInjected
from .retry import RetryPolicy

__all__ = ["inject", "FaultInjected", "RetryPolicy"]
