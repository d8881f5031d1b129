"""`repro.service` — certification served over a socket from a warm runtime.

Every in-process invocation of the engine pays cold-start costs — plan
construction, dataset decoding, cache open — that a long-lived daemon
amortizes across requests.  This subsystem is the served face of the
certification API:

* :class:`CertificationServer` — one warm
  :class:`~repro.runtime.CertificationRuntime` (decoded datasets, LRU'd
  engines with warm request plans, an open persistent verdict cache) behind a Unix-domain socket speaking the versioned
  JSON-lines protocol of :mod:`repro.service.protocol`;
* :class:`CertificationClient` — the full engine surface (``verify``,
  ``certify_batch``, ``certify_stream``, ``max_certified``,
  ``pareto_frontier``/``pareto_sweep``, cache stats/GC) against a remote
  runtime, decoding into the same result types the local API returns;
* :func:`wait_for_server` — bring-up helper for scripts that fork a daemon
  and immediately connect.

Start a daemon with ``repro-antidote serve /path/to.sock --cache-dir DIR``
and point any CLI certification command at it with ``--connect
/path/to.sock``.  The same daemon serves over TCP with ``serve --tcp
HOST:PORT`` (clients connect with ``--connect HOST:PORT``); :mod:`repro.fleet`
builds the multi-host router on top.  Concurrent clients asking the same question are coalesced
server-side (one learner invocation per distinct in-flight point), and
repeat batches answer from the warm cache with zero learner invocations.
"""

from repro.service.client import CertificationClient, wait_for_server
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_MINOR,
    PROTOCOL_VERSION,
    ProtocolError,
    RemoteError,
    RequestTimeoutError,
    dataset_from_wire,
    dataset_to_wire,
    encode_frame,
    format_address,
    model_from_wire,
    model_to_wire,
    parse_address,
    read_frame,
)
from repro.service.server import CertificationServer

__all__ = [
    "CertificationClient",
    "CertificationServer",
    "MAX_FRAME_BYTES",
    "PROTOCOL_MINOR",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteError",
    "RequestTimeoutError",
    "dataset_from_wire",
    "dataset_to_wire",
    "encode_frame",
    "format_address",
    "model_from_wire",
    "model_to_wire",
    "parse_address",
    "read_frame",
    "wait_for_server",
]
