"""Typed client for the tuning service (stdlib urllib, proxy-free).

:class:`Client` wraps the wire protocol of :mod:`repro.service.app` in
plain methods: ``create_session``/``status``/``suggest``/``report``/
``model``.  Every JSON response's envelope is checked — wrong ``schema``
or ``protocol`` raises immediately rather than mis-parsing a payload
from some other server — and protocol-level errors surface as
:class:`ServiceError` carrying the HTTP status and the stable error
``code``.

The transport is :mod:`urllib.request` with an empty ``ProxyHandler``,
so a client in a proxied environment still talks straight to the
daemon's host:port (the service is loopback-oriented; routing tuning
traffic through an HTTP proxy would be both slow and surprising).

:meth:`Client.run_session` is the convenience loop for client-evaluated
tuning: create a session, then suggest → measure (your callable) →
report until the budget is exhausted, returning the final snapshot.
:meth:`Client.model` deserializes the daemon's surrogate bytes back into
a predicting :class:`~repro.surrogate.Surrogate` adapter.
"""

from __future__ import annotations

import io
import json
import urllib.error
import urllib.request

from repro.service.protocol import PROTOCOL_VERSION, SERVICE_SCHEMA
from repro.surrogate import load_surrogate

__all__ = ["Client", "ServiceError"]


class ServiceError(Exception):
    """A request the service rejected (or a non-service response).

    ``status`` is the HTTP status, ``code`` the service's stable error
    identifier (``"unknown_session"``, ``"budget_exhausted"``, ...), and
    ``message`` the human-readable explanation.
    """

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(f"[{status}/{code}] {message}")
        self.status = status
        self.code = code
        self.message = message


class Client:
    """One daemon connection: ``Client("http://127.0.0.1:8642")``."""

    def __init__(self, base_url: str, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        # No proxies: the daemon is a direct host:port peer.
        self._opener = urllib.request.build_opener(
            urllib.request.ProxyHandler({})
        )

    # -- transport -----------------------------------------------------------
    def _request(
        self, method: str, path: str, payload: "dict | None" = None
    ) -> "tuple[int, dict, bytes]":
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(
            self.base_url + path, data=body, method=method, headers=headers
        )
        try:
            with self._opener.open(req, timeout=self.timeout) as resp:
                return resp.status, dict(resp.headers), resp.read()
        except urllib.error.HTTPError as exc:
            # Protocol-level rejections arrive as JSON error envelopes.
            return exc.code, dict(exc.headers or {}), exc.read()

    def _json(
        self, method: str, path: str, payload: "dict | None" = None
    ) -> dict:
        status, _headers, raw = self._request(method, path, payload)
        try:
            data = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ServiceError(
                status, "bad_response", f"non-JSON response body: {exc}"
            ) from exc
        self._check_envelope(status, data)
        if status >= 400:
            error = data.get("error") or {}
            raise ServiceError(
                status,
                error.get("code", "error"),
                error.get("message", raw.decode("utf-8", "replace")),
            )
        return data

    @staticmethod
    def _check_envelope(status: int, data: dict) -> None:
        schema = data.get("schema")
        protocol = data.get("protocol")
        if schema != SERVICE_SCHEMA or protocol != PROTOCOL_VERSION:
            raise ServiceError(
                status,
                "bad_envelope",
                f"response is not {SERVICE_SCHEMA} protocol "
                f"{PROTOCOL_VERSION} (got schema={schema!r}, "
                f"protocol={protocol!r})",
            )

    # -- endpoints -----------------------------------------------------------
    def healthz(self) -> dict:
        """Liveness probe: status, session count, server version."""
        return self._json("GET", "/v1/healthz")

    def strategies(self) -> dict:
        """Available strategies, benchmarks, and scales."""
        return self._json("GET", "/v1/strategies")

    def create_session(self, **spec_fields) -> dict:
        """Open a session; keyword arguments are SessionSpec fields.

        Returns the session snapshot (its ``id`` addresses every other
        call).  Example::

            client.create_session(benchmark="atax", strategy="pwu", seed=7)
        """
        data = self._json("POST", "/v1/sessions", spec_fields)
        return data["session"]

    def list_sessions(self) -> "list[dict]":
        """Snapshots of every session the daemon knows."""
        return self._json("GET", "/v1/sessions")["sessions"]

    def status(self, session_id: str) -> dict:
        """One session's snapshot."""
        return self._json("GET", f"/v1/sessions/{session_id}")["session"]

    def suggest(self, session_id: str, n: "int | None" = None) -> dict:
        """The next batch to measure: indices, decoded configs, encoded x."""
        payload = {} if n is None else {"n": n}
        data = self._json("POST", f"/v1/sessions/{session_id}/suggest", payload)
        return data["suggestion"]

    def report(self, session_id: str, indices, y) -> dict:
        """Report measured labels for the outstanding suggestion."""
        payload = {
            "indices": [int(i) for i in indices],
            "y": [float(v) for v in y],
        }
        data = self._json("POST", f"/v1/sessions/{session_id}/report", payload)
        return data["session"]

    def model_bytes(self, session_id: str) -> bytes:
        """The serialized packed forest, provenance-checked via headers."""
        status, headers, raw = self._request(
            "GET", f"/v1/sessions/{session_id}/model"
        )
        if status >= 400:
            try:
                data = json.loads(raw.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                data = {}
            error = data.get("error") or {}
            raise ServiceError(
                status, error.get("code", "error"), error.get("message", "")
            )
        if headers.get("X-Repro-Schema") != SERVICE_SCHEMA:
            raise ServiceError(
                status, "bad_envelope", "model response lacks service headers"
            )
        return raw

    def model(self, session_id: str):
        """The fitted surrogate, deserialized and ready to predict.

        Returns the :class:`~repro.surrogate.Surrogate` matching the
        session's family (``X-Repro-Surrogate`` header); the default forest
        arrives as a :class:`~repro.forest.RandomForestRegressor` holding
        the same packed forest the daemon fitted.
        """
        return load_surrogate(io.BytesIO(self.model_bytes(session_id)))

    # -- convenience ---------------------------------------------------------
    def run_session(self, measure, **spec_fields) -> dict:
        """Drive a whole client-evaluated session; returns the final snapshot.

        ``measure(suggestion) -> labels`` is your oracle: it receives the
        suggestion payload (``indices``/``configs``/``x``/``round``) and
        returns one label per suggested configuration.
        """
        session = self.create_session(**spec_fields)
        sid = session["id"]
        while True:
            status = self.status(sid)
            if status["state"] != "open":
                return status
            suggestion = self.suggest(sid)
            y = measure(suggestion)
            self.report(sid, suggestion["indices"], y)
