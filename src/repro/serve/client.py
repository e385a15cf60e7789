"""Minimal async client of the framed serve protocol.

Used by the tests, the serve benchmark and ``examples/serve_demo.py``;
it speaks the length-prefixed TCP protocol
(:mod:`repro.serve.protocol`) and exposes backpressure explicitly:
:meth:`ServeClient.ingest` returns the server's structured response
verbatim (an ``overloaded`` rejection included), while
:meth:`ServeClient.ingest_stream` is the well-behaved client loop --
batch, send, and on ``overloaded`` wait the server's ``retry_after``
hint before retrying, so the shedding decision made at the server
actually slows the producer down.  The loop composes the
:mod:`repro.serve.resilience` primitives: seeded-jitter exponential
backoff between reconnect attempts, per-request timeouts, and a
circuit breaker that stops hammering a dead server; every failure is
surfaced structurally on the :class:`IngestReport` instead of raised.

::

    async with await ServeClient.connect("127.0.0.1", port) as client:
        report = await client.ingest_stream(events, batch_events=64)
        print(report.overloaded_responses, "backpressure responses")
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.cep.events import Event
from repro.serve.protocol import (
    MAGIC,
    ProtocolError,
    encode_frame,
    events_to_wire,
    read_frame,
)

__all__ = ["ServeClient", "IngestReport"]


@dataclass
class IngestReport:
    """Outcome of one :meth:`ServeClient.ingest_stream` replay.

    ``rejected`` holds server rejections that exhausted their retries
    (or were not retryable); ``errors`` holds structured transport- and
    protocol-level failures (connection resets, truncated frames,
    timeouts) the stream absorbed or died on.  ``completed`` is False
    when the replay aborted before the last event was shipped.
    """

    events_sent: int = 0
    batches_sent: int = 0
    overloaded_responses: int = 0
    retries: int = 0
    rejected: List[Dict[str, object]] = field(default_factory=list)
    errors: List[Dict[str, object]] = field(default_factory=list)
    protocol_errors: int = 0
    reconnects: int = 0
    completed: bool = True


#: server rejections worth retrying: each carries (or implies) a
#: retry_after hint and clears once the server's pressure does
RETRYABLE_ERRORS = frozenset(
    {"overloaded", "busy", "rate_limited", "degraded", "deadline_exceeded"}
)


class ServeClient:
    """One framed-protocol connection to a :class:`PipelineServer`."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        auth: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._auth = auth
        self._host = host
        self._port = port
        self._timeout = timeout
        self.closed = False

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        auth: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> "ServeClient":
        """Open a connection and announce the framed protocol.

        ``timeout`` bounds every response read (and reconnect attempt);
        the address is remembered so :meth:`ingest_stream` can
        reconnect after a reset when asked to.
        """
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(MAGIC)
        await writer.drain()
        return cls(reader, writer, auth=auth, host=host, port=port, timeout=timeout)

    async def __aenter__(self) -> "ServeClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # request/response
    # ------------------------------------------------------------------
    async def request(self, message: Dict[str, object]) -> Dict[str, object]:
        """Send one frame and await its response frame."""
        if self.closed:
            raise RuntimeError("client is closed")
        if self._auth is not None:
            message.setdefault("auth", self._auth)
        self._writer.write(encode_frame(message))
        await self._writer.drain()
        if self._timeout is not None:
            response = await asyncio.wait_for(
                read_frame(self._reader), self._timeout
            )
        else:
            response = await read_frame(self._reader)
        if response is None:
            raise ProtocolError("server closed the connection mid-request")
        return response

    async def ingest(
        self, events: Iterable[Event], deadline_ms: Optional[float] = None
    ) -> Dict[str, object]:
        """Ship one batch of events; returns the structured response.

        The response is the server's verbatim JSON: ``{"ok": true,
        "accepted": n, ...}`` on admission, or a rejection such as the
        ``overloaded`` backpressure payload (queue utilization,
        per-query shedding state, ``retry_after``).  ``deadline_ms``
        attaches the batch's remaining latency budget, which a server
        running deadline admission may refuse up front.
        """
        message: Dict[str, object] = {
            "op": "ingest",
            "events": events_to_wire(events),
        }
        if deadline_ms is not None:
            message["deadline_ms"] = deadline_ms
        return await self.request(message)

    async def _reconnect(self) -> None:
        """Re-open the connection to the remembered address.

        The new transport is established (and the protocol announced)
        before the old one is discarded, so a failed attempt leaves the
        client in its previous -- broken but consistent -- state and
        the caller's next send fails fast instead of hanging.
        """
        if self._host is None or self._port is None:
            raise RuntimeError(
                "reconnect needs a client created via ServeClient.connect()"
            )
        open_coro = asyncio.open_connection(self._host, self._port)
        if self._timeout is not None:
            reader, writer = await asyncio.wait_for(open_coro, self._timeout)
        else:
            reader, writer = await open_coro
        writer.write(MAGIC)
        await writer.drain()
        old = self._writer
        self._reader, self._writer = reader, writer
        self.closed = False
        try:
            old.close()
        except Exception:
            pass

    async def ingest_stream(
        self,
        events: Iterable[Event],
        batch_events: int = 64,
        max_retries: int = 100,
        retry_after_cap: float = 5.0,
        backoff=None,
        breaker=None,
        reconnect: bool = False,
        deadline_ms: Optional[float] = None,
    ) -> IngestReport:
        """Replay ``events`` in order, surviving pushback and faults.

        Batches of ``batch_events`` are sent sequentially.  Three
        failure classes are handled, all reported structurally on the
        returned :class:`IngestReport` instead of raised:

        - *Retryable rejections* (``overloaded``, ``busy``,
          ``rate_limited``, ``degraded``, ``deadline_exceeded``): wait
          the server's ``retry_after`` hint (capped) and retry the same
          batch, preserving stream order; after ``max_retries``
          rejections the batch lands in ``report.rejected`` and is
          skipped -- the client-side equivalent of shedding.
        - *Transport/protocol failures* (resets, truncated frames,
          timeouts): recorded in ``report.errors``; with
          ``reconnect=True`` the client re-dials (waiting
          ``backoff.delay(n)`` between attempts when an
          :class:`~repro.serve.resilience.ExponentialBackoff` is given)
          and resends the batch.  A resend is at-least-once: it is
          exact only when the failure predates the server admitting the
          batch.  Without ``reconnect`` the replay aborts
          (``report.completed`` is False).
        - *Non-retryable rejections* (``auth_failed``, ``draining``,
          ...): recorded in ``report.rejected`` and the replay aborts.

        A :class:`~repro.serve.resilience.CircuitBreaker` passed as
        ``breaker`` gates every send: transport failures open it, and
        while open the client waits out the recovery window instead of
        hammering a dead server.
        """
        if batch_events <= 0:
            raise ValueError("batch size must be positive")
        report = IngestReport()
        batch: List[Event] = []

        def retry_delay(response: Dict[str, object]) -> float:
            retry_after = response.get("retry_after", 0.05)
            if not isinstance(retry_after, (int, float)) or retry_after <= 0:
                retry_after = 0.05
            return min(retry_after_cap, float(retry_after))

        async def ship(current: List[Event]) -> bool:
            """Deliver one batch; False aborts the stream."""
            attempts = 0
            while True:
                if breaker is not None and not breaker.allow():
                    attempts += 1
                    if attempts > max_retries:
                        report.completed = False
                        report.errors.append(
                            {
                                "error": "circuit_open",
                                "batch_events": len(current),
                            }
                        )
                        return False
                    await asyncio.sleep(
                        min(retry_after_cap, breaker.recovery_timeout)
                    )
                    continue
                try:
                    response = await self.ingest(
                        current, deadline_ms=deadline_ms
                    )
                except (
                    ProtocolError,
                    asyncio.TimeoutError,
                    asyncio.IncompleteReadError,
                    ConnectionError,
                    OSError,
                ) as exc:
                    if isinstance(exc, ProtocolError):
                        report.protocol_errors += 1
                    report.errors.append(
                        {
                            "error": (
                                "protocol_error"
                                if isinstance(exc, ProtocolError)
                                else "transport_error"
                            ),
                            "type": type(exc).__name__,
                            "detail": str(exc),
                            "batch_events": len(current),
                        }
                    )
                    if breaker is not None:
                        breaker.record_failure()
                    attempts += 1
                    if not reconnect or attempts > max_retries:
                        report.completed = False
                        return False
                    report.retries += 1
                    delay = (
                        backoff.delay(attempts - 1)
                        if backoff is not None
                        else 0.05
                    )
                    await asyncio.sleep(min(retry_after_cap, delay))
                    try:
                        await self._reconnect()
                        report.reconnects += 1
                    except (asyncio.TimeoutError, OSError):
                        pass  # next send fails fast, consuming a retry
                    continue
                if response.get("ok"):
                    if breaker is not None:
                        breaker.record_success()
                    report.events_sent += len(current)
                    report.batches_sent += 1
                    return True
                error = response.get("error")
                if error == "overloaded":
                    report.overloaded_responses += 1
                if error in RETRYABLE_ERRORS:
                    if breaker is not None:
                        # pushback is a live, answering server
                        breaker.record_success()
                    attempts += 1
                    if attempts > max_retries:
                        report.rejected.append(response)
                        return True
                    report.retries += 1
                    await asyncio.sleep(retry_delay(response))
                    continue
                report.rejected.append(response)
                report.completed = False
                return False

        for event in events:
            batch.append(event)
            if len(batch) >= batch_events:
                if not await ship(batch):
                    return report
                batch = []
        if batch:
            if not await ship(batch):
                return report
        return report

    async def metrics(self) -> Dict[str, object]:
        """The server's metrics tree (see ``PipelineServer.metrics``)."""
        response = await self.request({"op": "metrics"})
        if not response.get("ok"):
            raise ProtocolError(f"metrics rejected: {response}")
        return response["metrics"]

    async def ping(self) -> bool:
        """Round-trip one frame; True when the server answered ok."""
        response = await self.request({"op": "ping"})
        return bool(response.get("ok"))

    async def close(self) -> None:
        """Send ``bye`` (best effort) and close the connection."""
        if self.closed:
            return
        self.closed = True
        try:
            self._writer.write(encode_frame({"op": "bye"}))
            await self._writer.drain()
            await read_frame(self._reader)
        except (ConnectionResetError, BrokenPipeError, OSError, ProtocolError):
            pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
