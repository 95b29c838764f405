"""The asyncio serving front end: HTTP in, coalesced epoch-pinned batches out.

:class:`SDQueryServer` turns the SD-Index library into a service (the
ROADMAP's "millions of users" direction; the layered app/api split of the
Paper-Scanner exemplar): a stdlib-``asyncio`` TCP server speaking a minimal
HTTP/1.1 + JSON protocol, with every request flowing

    admission (per-tenant token bucket + in-flight cap, 429 on reject)
      -> coalescer (tick micro-batching onto one pinned epoch snapshot)
        -> (query, epoch) result cache -> batch kernels -> per-request JSON

No dependency beyond the standard library is introduced; the protocol is
deliberately small (``POST /query``, ``GET /stats``, ``GET /healthz``) and
self-describing.  The same ``submit()`` path is exposed directly for
embedded use — the benchmark and the property tests drive it without
sockets, so the serving semantics are testable independently of HTTP.

Responses carry the pinned epoch's version and the coalesced batch size, so
a client (or an oracle in a test) can verify exactly which population its
answer was computed against.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.deadline import NO_TIMEOUT
from repro.core.query import SDQuery
from repro.serving.admission import AdmissionController, AdmissionError
from repro.serving.cache import ResultCache
from repro.serving.coalescer import (
    RequestTimeout,
    ServedResult,
    ServerClosedError,
    TickCoalescer,
)

__all__ = ["ServingConfig", "SDQueryServer", "ServingClient"]

_MAX_REQUEST_BYTES = 1 << 20  # a top-k request is tiny; anything bigger is abuse


@dataclass
class ServingConfig:
    """Knobs of the serving front end (defaults suit the benchmarks)."""

    tick_seconds: Optional[float] = 0.002  #: coalescing window (None = manual)
    max_batch: int = 64  #: flush early once this many requests queue
    coalesce: bool = True  #: False = per-request baseline (bench control arm)
    cache_capacity: Optional[int] = 2048  #: None disables the result cache
    request_timeout: Optional[float] = 2.0  #: default per-request deadline
    rate: Optional[float] = None  #: per-tenant sustained requests/second
    burst: Optional[float] = None  #: per-tenant burst (defaults to ``rate``)
    max_in_flight: Optional[int] = None  #: per-tenant concurrent requests
    default_k: int = 10  #: ``k`` when the request omits it
    max_k: int = 1000  #: reject absurd ``k`` before it reaches the kernels


def _format_retry_after(seconds: float) -> str:
    """``Retry-After`` header value: the bucket's actual refill time rounded
    **up** at millisecond granularity, so a client sleeping exactly the header
    value is never rejected again by the same bucket (``%.3f`` alone rounds to
    *nearest* and could understate the wait by half a millisecond)."""
    return f"{math.ceil(max(0.0, float(seconds)) * 1000.0) / 1000.0:.3f}"


class SDQueryServer:
    """Serve top-k SD-Queries over HTTP with micro-batching and admission.

    ``index`` is an :class:`~repro.core.sdindex.SDIndex` or
    :class:`~repro.core.sharding.ShardedIndex` (anything with dimension
    roles and an epoch-pinning ``snapshot()``).  Use as an async context
    manager, or call :meth:`start` / :meth:`close` explicitly.
    """

    def __init__(self, index, config: Optional[ServingConfig] = None) -> None:
        self.config = config or ServingConfig()
        self.index = index
        cache = (
            ResultCache(self.config.cache_capacity)
            if self.config.cache_capacity
            else None
        )
        self.admission = AdmissionController(
            rate=self.config.rate,
            burst=self.config.burst,
            max_in_flight=self.config.max_in_flight,
        )
        self.coalescer = TickCoalescer(
            index,
            tick_seconds=self.config.tick_seconds,
            max_batch=self.config.max_batch,
            cache=cache,
            coalesce=self.config.coalesce,
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections = 0
        self._closed = False

    # -------------------------------------------------------------- lifecycle
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind the HTTP listener; returns ``(host, port)`` (0 = ephemeral)."""
        if self._closed:
            raise ServerClosedError("server closed")
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None:
            raise RuntimeError("server not started")
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def close(self) -> None:
        """Stop accepting, finish the in-flight batch, release every pin."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.coalescer.close()

    async def __aenter__(self) -> "SDQueryServer":
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.close()

    # ------------------------------------------------------------- embedded API
    async def submit(
        self,
        point: Sequence[float],
        k: Optional[int] = None,
        alpha: Optional[Sequence[float]] = None,
        beta: Optional[Sequence[float]] = None,
        tenant: str = "default",
        timeout=None,
    ) -> ServedResult:
        """Admit, coalesce and answer one query (the sans-HTTP entry point).

        ``timeout=None`` means "use the configured default"
        (``config.request_timeout``); pass the
        :data:`~repro.core.deadline.NO_TIMEOUT` sentinel to wait unbounded
        even on a server with a default deadline — ``None`` used to shadow
        that case silently.  Raises :class:`AdmissionError` (rejected),
        :class:`RequestTimeout` (deadline elapsed) or
        :class:`ServerClosedError`.
        """
        query = self._coerce(point, k, alpha, beta)
        self.admission.admit(tenant)
        try:
            if timeout is NO_TIMEOUT:
                deadline = None
            elif timeout is None:
                deadline = self.config.request_timeout
            else:
                deadline = float(timeout)
            return await self.coalescer.submit(query, timeout=deadline)
        finally:
            self.admission.release(tenant)

    def _coerce(self, point, k, alpha, beta) -> SDQuery:
        k = int(k) if k is not None else self.config.default_k
        if not 1 <= k <= self.config.max_k:
            raise ValueError(f"k must be in [1, {self.config.max_k}], got {k}")
        return SDQuery.simple(
            point=point,
            repulsive=self.index.repulsive,
            attractive=self.index.attractive,
            k=k,
            alpha=alpha,
            beta=beta,
        )

    # ------------------------------------------------------------------ stats
    def stats(self) -> Dict[str, Any]:
        return {
            "engine": type(self.index).__name__,
            "num_rows": len(self.index),
            "connections": self._connections,
            "admission": self.admission.stats(),
            "coalescer": self.coalescer.stats(),
        }

    # ------------------------------------------------------------------- HTTP
    async def _handle_connection(self, reader, writer) -> None:
        self._connections += 1
        try:
            while True:
                request = await _read_http_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection", "keep-alive") != "close"
                status, payload = await self._dispatch(method, path, headers, body)
                extra = {}
                if status == 429 and "retry_after" in payload:
                    extra["Retry-After"] = _format_retry_after(payload["retry_after"])
                writer.write(_http_response(status, payload, keep_alive, extra))
                await writer.drain()
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            _BadRequest,
        ) as exc:
            if isinstance(exc, _BadRequest) and not writer.is_closing():
                writer.write(_http_response(400, {"error": str(exc)}, False))
                try:
                    await writer.drain()
                except ConnectionResetError:
                    pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, asyncio.CancelledError):
                # All the work is done; being cancelled here means the loop
                # is tearing down mid-close — finishing quietly is correct,
                # re-raising only litters shutdown with spurious tracebacks.
                pass

    async def _dispatch(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        if method == "GET" and path == "/healthz":
            return 200, {"status": "ok"}
        if method == "GET" and path == "/stats":
            return 200, self.stats()
        if method == "POST" and path == "/query":
            return await self._handle_query(headers, body)
        return 404, {"error": f"no route for {method} {path}"}

    async def _handle_query(
        self, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            payload = json.loads(body.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("request body must be a JSON object")
            point = payload["point"]
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            return 400, {"error": f"malformed query request: {exc}"}
        tenant = str(payload.get("tenant") or headers.get("x-tenant") or "default")
        # Over the wire, an *explicit* JSON ``"timeout": null`` asks for an
        # unbounded wait (the NO_TIMEOUT sentinel); omitting the field keeps
        # the server's configured default.
        if "timeout" in payload and payload["timeout"] is None:
            timeout = NO_TIMEOUT
        else:
            timeout = payload.get("timeout")
        try:
            served = await self.submit(
                point,
                k=payload.get("k"),
                alpha=payload.get("alpha"),
                beta=payload.get("beta"),
                tenant=tenant,
                timeout=timeout,
            )
        except AdmissionError as exc:
            return 429, {
                "error": str(exc),
                "reason": exc.reason,
                "retry_after": exc.retry_after,
            }
        except RequestTimeout as exc:
            return 504, {"error": str(exc), "timeout": exc.timeout}
        except ServerClosedError as exc:
            return 503, {"error": str(exc)}
        except (TypeError, ValueError) as exc:
            return 400, {"error": f"invalid query: {exc}"}
        return 200, _result_payload(served)


def _result_payload(served: ServedResult) -> Dict[str, Any]:
    # json round-trips Python floats exactly (repr), so scores stay
    # bit-identical through the wire — the oracle tests rely on it.
    epoch = served.epoch
    payload = {
        "row_ids": [match.row_id for match in served.result.matches],
        "scores": [match.score for match in served.result.matches],
        "epoch": list(epoch) if isinstance(epoch, tuple) else epoch,
        "batch_size": served.batch_size,
        "cached": served.cached,
        "candidates_examined": served.result.candidates_examined,
        "degraded": served.result.degraded,
    }
    if served.result.coverage is not None:
        payload["coverage"] = served.result.coverage.as_dict()
    return payload


# --------------------------------------------------------------- HTTP plumbing
class _BadRequest(Exception):
    """The peer sent bytes that do not parse as an HTTP request."""


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    429: "Too Many Requests",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _http_response(
    status: int,
    payload: Dict[str, Any],
    keep_alive: bool,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    headers = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        headers.append(f"{name}: {value}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode("ascii") + body


async def _read_http_request(reader):
    """Parse one request; None on clean EOF, :class:`_BadRequest` on garbage."""
    line = await reader.readline()
    if not line:
        return None
    parts = line.decode("ascii", "replace").split()
    if len(parts) < 3 or not parts[2].startswith("HTTP/"):
        raise _BadRequest(f"malformed request line: {line[:80]!r}")
    method, path = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise _BadRequest("connection closed inside headers")
        name, sep, value = raw.decode("ascii", "replace").partition(":")
        if not sep:
            raise _BadRequest(f"malformed header line: {raw[:80]!r}")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0) or 0)
    if not 0 <= length <= _MAX_REQUEST_BYTES:
        raise _BadRequest(f"unreasonable content-length: {length}")
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


class ServingClient:
    """A tiny keep-alive HTTP client for the demo, load scripts and tests."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader = None
        self._writer = None

    async def connect(self) -> "ServingClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionResetError:
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "ServingClient":
        return await self.connect()

    async def __aexit__(self, *_exc) -> None:
        await self.close()

    async def request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Dict[str, Any]]:
        """One round trip; returns ``(status, decoded_json)``."""
        status, _headers, decoded = await self.request_full(method, path, payload)
        return status, decoded

    async def request_full(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Dict[str, str], Dict[str, Any]]:
        """One round trip; returns ``(status, headers, decoded_json)`` with
        header names lower-cased (for tests that assert on ``Retry-After``)."""
        if self._writer is None:
            await self.connect()
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Content-Type: application/json\r\n\r\n"
        ).encode("ascii")
        self._writer.write(head + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        status = int(status_line.split()[1])
        headers: Dict[str, str] = {}
        while True:
            raw = await self._reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("ascii", "replace").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        blob = await self._reader.readexactly(length) if length else b""
        decoded = json.loads(blob.decode("utf-8")) if blob else {}
        return status, headers, decoded

    async def query(
        self,
        point: Sequence[float],
        k: Optional[int] = None,
        alpha: Optional[Sequence[float]] = None,
        beta: Optional[Sequence[float]] = None,
        tenant: Optional[str] = None,
        timeout=None,
    ) -> Tuple[int, Dict[str, Any]]:
        """POST one top-k query; returns ``(status, response_json)``.

        ``timeout=None`` omits the field (server default applies);
        ``timeout=NO_TIMEOUT`` sends an explicit JSON null, asking the
        server for an unbounded wait.
        """
        payload: Dict[str, Any] = {"point": list(map(float, point))}
        if k is not None:
            payload["k"] = int(k)
        if alpha is not None:
            payload["alpha"] = list(map(float, alpha))
        if beta is not None:
            payload["beta"] = list(map(float, beta))
        if tenant is not None:
            payload["tenant"] = tenant
        if timeout is NO_TIMEOUT:
            payload["timeout"] = None
        elif timeout is not None:
            payload["timeout"] = float(timeout)
        return await self.request("POST", "/query", payload)
