"""The asyncio client for the hoard daemon, with at-least-once resend.

:class:`ServiceClient` speaks the protocol of
:mod:`repro.service.protocol` over TCP or a unix socket.  Its job
beyond plain request/response is the delivery contract the
differential and fault tests rely on:

* **sequence numbering** -- the client stamps every outgoing event with
  a tenant-monotonic ``seq`` (clients own their own event streams, so
  the counter lives here);
* **reconnect with resend** -- when the connection dies before a
  batch's ack arrives, the client reconnects under the
  :class:`~repro.faults.RetryPolicy` backoff schedule and resends
  the unacknowledged batch.  The daemon's seq dedupe turns this
  at-least-once delivery into exactly-once application, so a
  flaky network changes nothing about tenant state.

One client instance serves one tenant and must be used from a single
asyncio task (requests are strictly serial over one connection).
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Sequence

from repro.core.correlator import ObservedReference
from repro.faults import RetryPolicy
from repro.observability import Metrics
from repro.service import protocol


class ServiceUnavailableError(ConnectionError):
    """The daemon stayed unreachable through every retry attempt."""


class ServiceClient:
    """One tenant's connection to the hoard daemon.

    Parameters name either a TCP endpoint (*host*/*port*) or a unix
    socket (*unix_path*).  *retry_policy* bounds reconnect attempts;
    backoffs are really slept (scaled by *backoff_scale*, which tests
    set near zero to keep retries fast).
    """

    def __init__(self, tenant: str, host: str = "127.0.0.1", port: int = 0,
                 unix_path: Optional[str] = None,
                 retry_policy: RetryPolicy = RetryPolicy(),
                 backoff_scale: float = 1.0,
                 metrics: Optional[Metrics] = None) -> None:
        self.tenant = protocol.validate_tenant(tenant)
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.retry_policy = retry_policy
        self.backoff_scale = backoff_scale
        self.metrics = metrics if metrics is not None else Metrics()
        self.next_seq = 1
        self.reconnects = 0
        self.resends = 0
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._request_id = 0

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    async def connect(self) -> Dict[str, Any]:
        """Open the connection and perform the hello/welcome handshake.

        A failure *after* the TCP/unix connect succeeds (handshake
        frame refused, welcome malformed, write raising) closes the
        just-opened writer before re-raising -- otherwise every retry
        attempt would leak one live socket (lint rule RL012).
        """
        if self.unix_path is not None:
            self._reader, self._writer = await asyncio.open_unix_connection(
                self.unix_path, limit=protocol.MAX_LINE_BYTES)
        else:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port, limit=protocol.MAX_LINE_BYTES)
        try:
            welcome = await self._roundtrip({"type": "hello",
                                             "tenant": self.tenant})
            if welcome.get("type") != "welcome":
                raise ConnectionError(f"handshake failed: {welcome!r}")
        except BaseException:
            await self.close()
            raise
        return welcome

    async def close(self) -> None:
        """Drop the connection; always forgets the reader/writer pair.

        The refs are cleared *before* ``wait_closed`` so that an
        unexpected exception from the drain (anything beyond the
        routine ConnectionError/OSError of an already-dead peer)
        cannot strand the client holding a half-closed writer it
        believes is live.
        """
        writer = self._writer
        self._reader = None
        self._writer = None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def __aenter__(self) -> "ServiceClient":
        # Deliberately lazy: the first request connects inside the
        # retried path, so a connection refused or cut during the
        # handshake is covered by the same policy as any later failure.
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    @property
    def connected(self) -> bool:
        return self._writer is not None and not self._writer.is_closing()

    async def _reconnect(self, attempt: int) -> None:
        """Sleep the policy's backoff for failed *attempt*, reconnect."""
        await self.close()
        pause = self.retry_policy.backoff_for(attempt) * self.backoff_scale
        if pause > 0:
            await asyncio.sleep(pause)
        await self.connect()
        self.reconnects += 1
        self.metrics.incr("service.client_reconnects")

    # ------------------------------------------------------------------
    # the request loop
    # ------------------------------------------------------------------
    async def _roundtrip(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one frame, read one frame (no retries at this layer)."""
        if self._reader is None or self._writer is None:
            raise ConnectionError("client is not connected")
        self._request_id += 1
        message = dict(message)
        message.setdefault("v", protocol.PROTOCOL_VERSION)
        message.setdefault("id", self._request_id)
        self._writer.write(protocol.encode(message))
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("connection closed before the response")
        return protocol.decode_line(line)

    async def _request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Round-trip with reconnect-and-resend under the retry policy.

        Safe for every message type: ``events`` batches are idempotent
        at the daemon thanks to seq dedupe, and the other requests are
        read-only or idempotent by construction.
        """
        attempts = self.retry_policy.max_attempts
        resent = False
        for attempt in range(1, attempts + 1):
            try:
                if not self.connected:
                    await self.connect()
                if resent:
                    self.resends += 1
                    self.metrics.incr("service.client_resends")
                reply = await self._roundtrip(message)
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                if attempt >= attempts:
                    raise ServiceUnavailableError(
                        f"daemon unreachable after {attempts} attempts") \
                        from None
                resent = True
                try:
                    await self._reconnect(attempt)
                except (ConnectionError, OSError):
                    continue   # next loop iteration backs off again
                continue
            if reply.get("type") == "error":
                raise protocol.ProtocolError(str(reply.get("code")),
                                             str(reply.get("error")))
            return reply
        raise ServiceUnavailableError(
            f"daemon unreachable after {attempts} attempts")

    # ------------------------------------------------------------------
    # the public request surface
    # ------------------------------------------------------------------
    def stamp(self, references: Sequence[ObservedReference]
              ) -> List[ObservedReference]:
        """Assign this client's next wire sequence numbers to a batch."""
        stamped: List[ObservedReference] = []
        for reference in references:
            stamped.append(ObservedReference(
                seq=self.next_seq, time=reference.time, pid=reference.pid,
                action=reference.action, path=reference.path,
                path2=reference.path2, ppid=reference.ppid))
            self.next_seq += 1
        return stamped

    async def send_events(self, references: Sequence[ObservedReference],
                          stamp: bool = True) -> Dict[str, Any]:
        """Deliver a batch of classified references (at-least-once).

        With ``stamp=True`` (the default) the batch is renumbered with
        this client's monotonic sequence; pass ``stamp=False`` when the
        caller manages sequence numbers itself.
        """
        batch = self.stamp(references) if stamp else list(references)
        self.metrics.incr("service.client_batches")
        return await self._request({
            "type": "events", "tenant": self.tenant,
            "records": protocol.references_to_wire(batch)})

    async def hoard_fill(self, budget: int,
                         sizes: Optional[Dict[str, int]] = None,
                         default_size: int = 0) -> Dict[str, Any]:
        """Ask for a hoard selection; returns the canonical payload."""
        message: Dict[str, Any] = {"type": "hoard_fill",
                                   "tenant": self.tenant, "budget": budget,
                                   "default_size": default_size}
        if sizes is not None:
            message["sizes"] = sizes
        reply = await self._request(message)
        hoard = reply.get("hoard")
        assert isinstance(hoard, dict)
        return hoard

    async def stats(self) -> Dict[str, Any]:
        return await self._request({"type": "stats", "tenant": self.tenant})

    async def checkpoint(self) -> Dict[str, Any]:
        """Ask the daemon to persist this tenant's state now."""
        return await self._request({"type": "checkpoint",
                                    "tenant": self.tenant})

    async def ping(self) -> bool:
        reply = await self._request({"type": "ping"})
        return reply.get("type") == "pong"
