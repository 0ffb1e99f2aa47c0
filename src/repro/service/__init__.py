"""repro.service -- the concurrent query-serving layer.

Everything before this package makes one *call* fast; this package makes
a *session* fast and shared: :class:`LakeService` holds one warm
pipeline over a versioned lake store and serves concurrent
discover/align/integrate requests through a worker pool, a versioned
result cache (invalidated by lake version, never by enumeration),
single-flight execution of identical concurrent requests, and a hot-swap
reload path that follows on-disk ingests without dropping in-flight work.  :class:`LakeServer` /
:class:`ServiceClient` put the same session behind a stdlib TCP line
protocol (the CLI's ``repro serve`` / ``--service``).

Entry points::

    service = LakeService(store="lake.store", workers=8)   # or
    service = Dialite.open("lake.store").serve(workers=8)

    response = service.discover(query, k=5, query_column="City")
    response.lake_version, response.cached, response.payload

    server = LakeServer(service, port=8765); server.start()
    client = ServiceClient("127.0.0.1:8765"); client.discover(query, k=5)
"""

from .protocol import LakeServer, ServiceClient, decode_table, encode_table, parse_address
from .service import (
    DeadlineExceeded,
    LakeService,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    ServiceResponse,
    ServiceUnavailable,
    oracle_discover_payload,
)

__all__ = [
    "LakeService",
    "LakeServer",
    "ServiceClient",
    "ServiceResponse",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceUnavailable",
    "DeadlineExceeded",
    "ServiceClosed",
    "encode_table",
    "decode_table",
    "parse_address",
    "oracle_discover_payload",
]
