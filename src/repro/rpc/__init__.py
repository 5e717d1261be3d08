"""repro.rpc — the typed RPC substrate over the simulated message plane.

Unifies what grew ad hoc across the stack into four small pieces:

* :class:`RetryPolicy` — the single deadline/retry/backoff policy object
  (``repro.faults.RpcPolicy`` is this class, re-exported);
* :class:`Endpoint` / :data:`ENDPOINTS` / :func:`serve` — the typed
  request/response catalogue of every RPC in the D-STM protocol;
* :class:`RpcClient` — the caller side: endpoint typing, blocking
  ``call`` and fan-out ``call_all`` over :meth:`repro.net.node.Node.gather`
  (whose callback-driven ``_Call`` is the one retry loop), shared tracing
  and metrics;
* :class:`PiggybackBatcher` — per-link send coalescing (window > 0
  only; the default path is byte-identical to the unbatched build);
* :class:`LookupCache` — version-fenced directory lookup caching shared
  by the proxy, TFA validation, and fault recovery.

Everything here is strictly additive: with ``RpcConfig()`` defaults
(no batching window, hint-mode cache, no policy) a same-seed run is
event-for-event identical to the pre-rpc build — pinned by
``tests/rpc/test_equivalence.py``.
"""

from repro.rpc.batch import PiggybackBatcher
from repro.rpc.cache import LookupCache
from repro.rpc.client import RpcClient
from repro.rpc.endpoint import ENDPOINTS, Endpoint, EndpointRegistry, serve
from repro.rpc.errors import EndpointError, PeerUnreachable
from repro.rpc.policy import RetryPolicy
from repro.rpc.payload import NodePayload, PayloadPlane

__all__ = [
    "ENDPOINTS",
    "Endpoint",
    "EndpointError",
    "EndpointRegistry",
    "LookupCache",
    "NodePayload",
    "PayloadPlane",
    "PeerUnreachable",
    "PiggybackBatcher",
    "RetryPolicy",
    "RpcClient",
    "serve",
]
