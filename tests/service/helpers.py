"""Shared plumbing for the service test package.

Every test drives a *real* daemon -- asyncio server, sockets, drain
tasks -- inside the test process, over a unix socket in a temp
directory.  ``run_async`` wraps ``asyncio.run`` so test functions stay
plain synchronous pytest (pytest-asyncio is deliberately not a
dependency); ``daemon_on_socket`` handles start/stop so a failing
assertion cannot leak a listening socket into the next test.
"""

import asyncio
import contextlib
import os
from typing import Any, AsyncIterator, Callable, Coroutine, List, Tuple

from repro.core.correlator import Action, ObservedReference
from repro.faults import RetryPolicy
from repro.service.client import ServiceClient
from repro.service.daemon import HoardDaemon

#: A retry policy with near-instant backoffs for fault tests.
FAST_RETRY = RetryPolicy(max_attempts=10, initial_backoff_seconds=0.01,
                         backoff_multiplier=1.5, max_backoff_seconds=0.05)


def run_async(coroutine: Coroutine) -> Any:
    """Run one async test body on a fresh event loop."""
    return asyncio.run(coroutine)


@contextlib.asynccontextmanager
async def daemon_on_socket(tmp_path, name: str = "svc.sock",
                           **kwargs: Any) -> AsyncIterator[Tuple[HoardDaemon, str]]:
    """A started daemon listening on a unix socket under *tmp_path*."""
    socket_path = os.path.join(str(tmp_path), name)
    daemon = HoardDaemon(**kwargs)
    await daemon.start(unix_path=socket_path)
    try:
        yield daemon, socket_path
    finally:
        await daemon.stop()


def client_for(tenant: str, socket_path: str,
               retry_policy: RetryPolicy = FAST_RETRY) -> ServiceClient:
    """A client with fast retries and near-zero real backoff sleeps."""
    return ServiceClient(tenant, unix_path=socket_path,
                         retry_policy=retry_policy, backoff_scale=0.01)


def references_from_stream(stream: List[Tuple[str, int, str, str, int]],
                           start_seq: int = 0) -> List[ObservedReference]:
    """Wire-ready references from the (kind, pid, path, path2, ppid)
    tuples the hypothesis strategies produce (same encoding as
    ``tests/core/test_equivalence.py``)."""
    return [ObservedReference(seq=seq, time=float(seq), pid=pid,
                              action=Action(kind), path=path, path2=path2,
                              ppid=ppid)
            for seq, (kind, pid, path, path2, ppid)
            in enumerate(stream, start_seq + 1)]


async def send_in_batches(client: ServiceClient,
                          references: List[ObservedReference],
                          batch_size: int) -> None:
    """Deliver a reference stream as fixed-size wire batches."""
    for start in range(0, len(references), batch_size):
        await client.send_events(references[start:start + batch_size],
                                 stamp=False)
