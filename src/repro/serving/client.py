"""Synchronous HTTP client for the serving API.

:class:`HttpServiceClient` is what :func:`repro.loadgen.run_load`
drives: ``recommend`` and ``score`` take ids and post them, so the
open-loop harness measures the server the way a caller reaches it.
Connections are per-thread (``http.client`` handles are not
thread-safe) and keep-alive, with one transparent reconnect when the
server closes an idle connection; the client owns every handle its
threads opened and :meth:`~HttpServiceClient.close` closes them all.

``recommend`` posts no ``event_ids``: the server ranks its whole pool
(the only shape loadgen produces), so the wire cost stays flat in
pool size.  Anything else the API accepts goes through
:meth:`~HttpServiceClient.request`.
"""

from __future__ import annotations

import http.client
import json
import threading
from typing import Any

__all__ = ["HttpServiceClient", "ServerError"]


class ServerError(RuntimeError):
    """A non-2xx response, carrying the server's error envelope."""

    def __init__(self, status: int, envelope: Any) -> None:
        super().__init__(f"HTTP {status}: {envelope}")
        self.status = status
        self.envelope = envelope


class HttpServiceClient:
    """The serving HTTP API as method calls over ids."""

    def __init__(self, host: str, port: int, *, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._local = threading.local()
        # Every thread's handle, so close() reaches the sockets that
        # worker threads opened and can no longer close themselves.
        self._connections: list[http.client.HTTPConnection] = []

    # -- transport -----------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._local.connection = connection
            self._connections.append(connection)
        return connection

    def request(self, method: str, path: str, payload: Any = None) -> Any:
        """One round-trip; retries once on a dropped idle connection."""
        body = None if payload is None else json.dumps(payload)
        for attempt in (0, 1):
            connection = self._connection()
            try:
                connection.request(
                    method,
                    path,
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                raw = response.read()
                break
            except (
                http.client.HTTPException,
                ConnectionError,
                BrokenPipeError,
            ):
                connection.close()  # the handle reconnects on its next use
                if attempt:
                    raise
        status = response.status
        content_type = response.getheader("Content-Type", "")
        if content_type.startswith("application/json"):
            decoded: Any = json.loads(raw) if raw else None
        else:
            decoded = raw.decode("utf-8")
        if status >= 400:
            raise ServerError(status, decoded)
        return decoded

    def close(self) -> None:
        """Close every thread's connection, not just the caller's."""
        for connection in self._connections:
            connection.close()

    # -- API calls -----------------------------------------------------

    def score(self, user_id: int, event_id: int) -> float:
        reply = self.request(
            "POST", "/score", {"user_id": user_id, "event_id": event_id}
        )
        return float(reply["score"])

    def recommend(
        self, user_id: int, top_k: int | None = None
    ) -> list[dict[str, Any]]:
        """``user_id``'s ranking of the server's whole pool."""
        reply = self.request(
            "POST", "/recommend", {"user_id": user_id, "top_k": top_k}
        )
        return list(reply["results"])

    # -- operational endpoints -----------------------------------------

    def healthz(self) -> dict[str, Any]:
        return dict(self.request("GET", "/healthz"))

    def metrics(self) -> str:
        return str(self.request("GET", "/metrics"))
