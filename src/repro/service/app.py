"""Transport-free request routing: (method, path, body) → (status, headers, body).

:class:`ServiceApp` implements the whole wire protocol against a
:class:`~repro.service.registry.SessionRegistry` without touching a
socket — :meth:`ServiceApp.handle` takes the method, path, and raw body
bytes and returns the status code, response headers, and response body.
The HTTP daemon (:mod:`repro.service.daemon`) is a thin adapter over it,
and the unit tests drive the full protocol through this layer with no
ports, no threads, and no flakiness.

Routes (all JSON unless noted)::

    GET  /v1/healthz                  liveness + session count
    GET  /v1/strategies               strategies / surrogates / benchmarks / scales
    GET  /v1/sessions                 snapshots of every session
    POST /v1/sessions                 create (body: SessionSpec fields)
    GET  /v1/sessions/{id}            one session's snapshot
    POST /v1/sessions/{id}/suggest    next batch (body: {"n": int?})
    POST /v1/sessions/{id}/report     absorb labels (body: indices + y)
    GET  /v1/sessions/{id}/model      serialized surrogate (binary .npz)

Every JSON body is wrapped in the versioned envelope of
:mod:`repro.service.protocol`; errors are JSON envelopes too (never HTML
or a traceback), and the model endpoint carries its provenance in
``X-Repro-Schema`` / ``X-Repro-Protocol`` / ``X-Repro-Version`` headers
because its body is binary.
"""

from __future__ import annotations

import json
import re

from repro._version import __version__
from repro.experiments.config import SCALES
from repro.sampling import STRATEGY_NAMES, available_strategies
from repro.surrogate import available_surrogates
from repro.service.protocol import (
    PROTOCOL_VERSION,
    SERVICE_SCHEMA,
    ProtocolError,
    SessionSpec,
    envelope,
)
from repro.service.registry import SessionRegistry
from repro.telemetry import counters
from repro.workloads import all_benchmarks

__all__ = ["ServiceApp"]

_JSON = "application/json"
_BINARY = "application/octet-stream"

_SESSION_PATH = re.compile(r"^/v1/sessions/([A-Za-z0-9_-]+)(/[a-z]+)?$")


def _json_response(status: int, payload: dict) -> "tuple[int, dict, bytes]":
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return status, {"Content-Type": _JSON}, body


class ServiceApp:
    """The service's route table over one session registry."""

    def __init__(self, registry: SessionRegistry) -> None:
        self.registry = registry

    # -- entry point ---------------------------------------------------------
    def handle(  # repro: thread-entry — one ThreadingHTTPServer thread per in-flight request
        self, method: str, path: str, body: bytes = b""
    ) -> "tuple[int, dict, bytes]":
        """Dispatch one request; never raises for protocol-level faults."""
        counters.inc("service.requests")
        try:
            return self._route(method.upper(), path.rstrip("/") or "/", body)
        except ProtocolError as exc:
            counters.inc("service.errors")
            return _json_response(exc.status, exc.to_payload())

    # -- routing -------------------------------------------------------------
    def _route(
        self, method: str, path: str, body: bytes
    ) -> "tuple[int, dict, bytes]":
        if path == "/v1/healthz":
            self._require(method, "GET")
            return _json_response(
                200, envelope({"status": "ok", "sessions": len(self.registry)})
            )
        if path == "/v1/strategies":
            self._require(method, "GET")
            return _json_response(
                200,
                envelope(
                    {
                        "strategies": list(available_strategies()),
                        "paper_strategies": list(STRATEGY_NAMES),
                        "surrogates": list(available_surrogates()),
                        "benchmarks": list(all_benchmarks()),
                        "scales": sorted(SCALES),
                    }
                ),
            )
        if path == "/v1/sessions":
            if method == "GET":
                return _json_response(
                    200, envelope({"sessions": self.registry.list()})
                )
            self._require(method, "POST")
            spec = SessionSpec.from_payload(self._parse_json(body))
            session = self.registry.create(spec)
            return _json_response(201, envelope({"session": session.snapshot()}))
        m = _SESSION_PATH.match(path)
        if m is None:
            raise ProtocolError(404, "unknown_route", f"no route for {path!r}")
        session_id, verb = m.group(1), (m.group(2) or "").lstrip("/")
        session = self.registry.get(session_id)
        if not verb:
            self._require(method, "GET")
            return _json_response(200, envelope({"session": session.snapshot()}))
        if verb == "suggest":
            self._require(method, "POST")
            payload = self._parse_json(body) if body.strip() else {}
            n = payload.get("n")
            if n is not None and (isinstance(n, bool) or not isinstance(n, int)):
                raise ProtocolError(400, "bad_request", "'n' must be an integer")
            return _json_response(
                200, envelope({"suggestion": session.suggest(n)})
            )
        if verb == "report":
            self._require(method, "POST")
            payload = self._parse_json(body)
            for field in ("indices", "y"):
                if field not in payload or not isinstance(payload[field], list):
                    raise ProtocolError(
                        400,
                        "bad_report",
                        f"report requires a list field {field!r}",
                    )
            snapshot = session.report(payload["indices"], payload["y"])
            return _json_response(200, envelope({"session": snapshot}))
        if verb == "model":
            self._require(method, "GET")
            blob = session.model_bytes()
            counters.inc("service.models_served")
            headers = {
                "Content-Type": _BINARY,
                "X-Repro-Schema": SERVICE_SCHEMA,
                "X-Repro-Protocol": str(PROTOCOL_VERSION),
                "X-Repro-Version": __version__,
                "X-Repro-Surrogate": session.spec.surrogate,
            }
            return 200, headers, blob
        raise ProtocolError(
            404, "unknown_route", f"no session verb {verb!r} (path {path!r})"
        )

    # -- helpers -------------------------------------------------------------
    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise ProtocolError(
                405, "method_not_allowed", f"use {expected} for this route"
            )

    @staticmethod
    def _parse_json(body: bytes) -> dict:
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ProtocolError(
                400, "bad_json", f"request body is not valid JSON: {exc}"
            ) from exc
        except RecursionError:
            # A few KB of nested brackets exhaust the parser's stack.
            raise ProtocolError(
                400, "bad_json", "request body is nested too deeply"
            ) from None
        if not isinstance(payload, dict):
            raise ProtocolError(
                400, "bad_json", "request body must be a JSON object"
            )
        return payload
